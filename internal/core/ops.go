package core

import (
	"fmt"

	"grub/internal/workload"
)

// The batch-op layer: the wire-level operation vocabulary shared by every
// component that drives a Feed from outside — the gateway workers
// (internal/server), the sharded feed engine (internal/shard), sequential
// replays and the load drivers. It lives in core, below all of them, so the
// serving layers can share one execution path without import cycles.

// Op is one operation in a batch. Type is "read", "write" or "scan". A
// write's Value is kept, not copied: the feed's record set stores those
// bytes as handed over, so the caller must not write them after the batch.
type Op struct {
	Type    string `json:"type"`
	Key     string `json:"key"`
	Value   []byte `json:"value,omitempty"`
	ScanLen int    `json:"scanLen,omitempty"`
}

// OpResult reports one executed operation. Found is meaningful for reads: it
// distinguishes a delivered value from a proven absence. A found read's
// Value is the feed's own delivered bytes (Feed.LastValue), shared, not
// copied: it is read-only, for the feed and for every holder of the result.
type OpResult struct {
	Key   string `json:"key"`
	Found bool   `json:"found,omitempty"`
	Value []byte `json:"value,omitempty"`
	Err   string `json:"err,omitempty"`
}

// ApplyOps executes a batch against a feed, in order, and returns per-op
// results. It is the single execution path shared by the gateway workers,
// the shard workers and sequential replays, so a concurrent run and a
// single-threaded replay of the same serialized op order produce identical
// state and Gas.
func ApplyOps(f *Feed, ops []Op) []OpResult {
	out := make([]OpResult, len(ops))
	for i, op := range ops {
		out[i] = applyOp(f, op, true)
	}
	return out
}

// RunOps executes a batch as ApplyOps does, to the same state and Gas, and
// builds no results: for a replay whose results no one reads, such as a
// recovery's log replay or a follower's shipped batches.
func RunOps(f *Feed, ops []Op) {
	for _, op := range ops {
		applyOp(f, op, false)
	}
}

// applyOp decodes one wire op into the workload vocabulary (the inverse of
// FromWorkload), runs it through Feed.step, and reads the outcome off the
// feed's DU-side state; a found read's value is read, and shared, only when
// value is set.
func applyOp(f *Feed, op Op, value bool) OpResult {
	res := OpResult{Key: op.Key}
	var w workload.Op
	switch op.Type {
	case "write":
		w = workload.Write(op.Key, op.Value)
	case "read":
		w = workload.Read(op.Key)
	case "scan":
		w = workload.Scan(op.Key, max(op.ScanLen, 1))
	default:
		res.Err = fmt.Sprintf("unknown op type %q", op.Type)
		return res
	}
	before := f.delivered
	if err := f.step(w); err != nil {
		res.Err = err.Error()
		return res
	}
	if op.Type != "read" {
		res.Found = true
	} else if f.delivered > before {
		res.Found = true
		if value {
			res.Value = f.LastValue[op.Key]
		}
	}
	return res
}

// FromWorkload converts a workload trace into batch ops (the load driver and
// the serving benchmarks replay YCSB traces through this).
func FromWorkload(ops []workload.Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		switch {
		case op.Write:
			out[i] = Op{Type: "write", Key: op.Key, Value: op.Value}
		case op.ScanLen > 0:
			out[i] = Op{Type: "scan", Key: op.Key, ScanLen: op.ScanLen}
		default:
			out[i] = Op{Type: "read", Key: op.Key}
		}
	}
	return out
}
