package core

import (
	"bytes"

	"grub/internal/wire"
)

// The binary ops encoding (docs/API.md, "Binary ops encoding"): the one form
// an op batch takes wherever it is stored or shipped — the gateway's
// application/x-grub-ops request body, each shard's durable log record and
// every entry of a binary replication log page.

// The code byte that opens an op. An op whose type is none of the three
// known ones crosses as opOther followed by the type, so the gateway reports
// it as a per-op "unknown op type" result, as it does for JSON.
const (
	opRead byte = iota
	opWrite
	opScan
	opOther
)

var opTypes = [...]string{opRead: "read", opWrite: "write", opScan: "scan"}

// MinOpWire is an op's smallest encoding, which bounds a decoded count by the
// bytes left: a code byte, an empty key, an empty value and scanLen 0.
const MinOpWire = 4

// AppendOps appends a batch: int n, then n ops. A negative ScanLen crosses
// as 0, which the feed treats the same.
func AppendOps(b []byte, ops []Op) []byte {
	b = wire.AppendInt(b, len(ops))
	for i := range ops {
		op := &ops[i]
		switch op.Type {
		case "read":
			b = append(b, opRead)
		case "write":
			b = append(b, opWrite)
		case "scan":
			b = append(b, opScan)
		default:
			b = wire.AppendString(append(b, opOther), op.Type)
		}
		b = wire.AppendString(b, op.Key)
		b = wire.AppendBytes(b, op.Value)
		b = wire.AppendInt(b, max(op.ScanLen, 0))
	}
	return b
}

// DecodeOps decodes a whole body as one batch. The body is untrusted, and
// the caller may reuse it as soon as DecodeOps returns.
func DecodeOps(body []byte) ([]Op, error) {
	r := wire.Borrow(body)
	ops := ReadOps(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ops, nil
}

// ReadOps reads a batch from r. Every key and every value is an allocation
// of its own, as encoding/json makes them, because the feed keeps ops past
// the batch: its per-key maps hold keys for as long as they are live, its
// record set keeps each written value as decoded (ads.Set.Put takes the
// bytes over, and nobody writes them again), and each shard's replication
// log (and, when recording, its trace) holds its sub-batch's ops. Those
// bound what they keep by the ops' own keys and values, so an op aliasing
// the body would keep the whole body with it, other shards' ops included.
// Nothing read aliases r's buffer, so r may be a Borrow reader.
//
// Only AppendOps's own output decodes: an opOther op naming a known type is
// refused, so every batch has exactly one encoding.
func ReadOps(r *wire.Reader) []Op {
	ops := make([]Op, r.Count(MinOpWire))
	for i := range ops {
		op := &ops[i]
		switch code := r.Byte(); code {
		case opRead, opWrite, opScan:
			op.Type = opTypes[code]
		case opOther:
			op.Type = r.OwnStr()
			if op.Type == "read" || op.Type == "write" || op.Type == "scan" {
				r.Fail("op type %q under the other-type code", op.Type)
			}
		default:
			r.Fail("op code %d", code)
		}
		op.Key = r.OwnStr()
		op.Value = bytes.Clone(r.Bytes(r.Int()))
		op.ScanLen = r.Int()
	}
	return ops
}
