package core

import (
	"fmt"
	"reflect"
	"testing"

	"grub/internal/chain"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
)

// snapTrace builds a deterministic mixed trace: interleaved writes, repeated
// reads (to trigger promotions), fresh-key reads (absence proofs) and value
// rewrites (demotions).
func snapTrace(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i%7)
		switch i % 5 {
		case 0, 3:
			ops = append(ops, Op{Type: "write", Key: key, Value: []byte(fmt.Sprintf("v%d", i))})
		case 4:
			ops = append(ops, Op{Type: "read", Key: fmt.Sprintf("missing%d", i)})
		default:
			ops = append(ops, Op{Type: "read", Key: key})
		}
	}
	return ops
}

func newSnapChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
}

// TestSnapshotRestoreEquivalence cuts a trace at several points; at each cut
// it snapshots the feed, restores it onto a fresh chain, drives the
// remainder of the trace through both the original and the restored feed,
// and requires identical results, stats, record sets and digests.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	mk := func(name string) (policy.Policy, Options) {
		switch name {
		case "memoryless":
			return policy.NewMemoryless(2), Options{EpochOps: 8}
		case "memorizing":
			return policy.NewMemorizing(2, 1), Options{EpochOps: 8}
		case "bl1":
			return policy.Never{}, Options{EpochOps: 8}
		case "bl2":
			return policy.Always{}, Options{EpochOps: 8, NoADS: true}
		case "budget":
			// Replica budget: the LRU clock is part of the state.
			return policy.NewMemoryless(1), Options{EpochOps: 4, MaxReplicas: 2}
		}
		t.Fatalf("unknown policy %q", name)
		return nil, Options{}
	}

	trace := snapTrace(60)
	for _, pol := range []string{"memoryless", "memorizing", "bl1", "bl2", "budget"} {
		// Cut points chosen to land mid-epoch (staged writes pending) and
		// on epoch boundaries.
		for _, cut := range []int{5, 16, 33} {
			t.Run(fmt.Sprintf("%s/cut%d", pol, cut), func(t *testing.T) {
				p1, opts := mk(pol)
				orig := NewFeed(newSnapChain(), p1, opts)
				ApplyOps(orig, trace[:cut])

				snap, err := orig.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				data, err := snap.Encode()
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				decoded, err := DecodeFeedSnapshot(data)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				p2, opts2 := mk(pol)
				restored, err := RestoreFeed(newSnapChain(), p2, opts2, decoded)
				if err != nil {
					t.Fatalf("RestoreFeed: %v", err)
				}

				// The restored feed must already agree on everything
				// observable...
				requireFeedsEqual(t, "at cut", orig, restored)

				// ...and keep agreeing while the rest of the trace runs
				// through both (same future decisions, same future gas).
				r1 := ApplyOps(orig, trace[cut:])
				r2 := ApplyOps(restored, trace[cut:])
				if !reflect.DeepEqual(r1, r2) {
					t.Fatalf("post-restore results diverge:\n orig %v\n rest %v", r1, r2)
				}
				requireFeedsEqual(t, "after tail", orig, restored)
			})
		}
	}
}

// TestLastTouchOnlyUnderReplicaBudget: the LRU clock has one reader, the
// replica budget, so a feed without a budget neither keeps nor snapshots it
// — and still restores a snapshot written when every feed carried it.
func TestLastTouchOnlyUnderReplicaBudget(t *testing.T) {
	trace := snapTrace(60)
	for _, budget := range []int{0, 2} {
		opts := Options{EpochOps: 4, MaxReplicas: budget}
		orig := NewFeed(newSnapChain(), policy.NewMemoryless(1), opts)
		ApplyOps(orig, trace[:33])
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if kept := len(snap.LastTouch) > 0 && snap.LRUTick > 0; kept != (budget > 0) {
			t.Fatalf("budget %d: snapshot has lruTick %d and %d lastTouch entries", budget, snap.LRUTick, len(snap.LastTouch))
		}
		if budget > 0 {
			continue
		}
		// The same snapshot as a feed that kept the clock for every key
		// would have written it.
		snap.LRUTick = 33
		snap.LastTouch = map[string]uint64{"k00": 31, "k01": 32, "k02": 33}
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFeedSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreFeed(newSnapChain(), policy.NewMemoryless(1), opts, decoded)
		if err != nil {
			t.Fatalf("RestoreFeed with lastTouch: %v", err)
		}
		requireFeedsEqual(t, "at cut", orig, restored)
		if r1, r2 := ApplyOps(orig, trace[33:]), ApplyOps(restored, trace[33:]); !reflect.DeepEqual(r1, r2) {
			t.Fatalf("post-restore results diverge:\n orig %v\n rest %v", r1, r2)
		}
		requireFeedsEqual(t, "after tail", orig, restored)
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if again.LRUTick != 0 || len(again.LastTouch) != 0 {
			t.Fatalf("restored feed snapshots lruTick %d and %d lastTouch entries", again.LRUTick, len(again.LastTouch))
		}
	}
}

func requireFeedsEqual(t *testing.T, when string, a, b *Feed) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("%s: stats diverge:\n orig %+v\n rest %+v", when, sa, sb)
	}
	ra, rb := a.DO.Set().Records(), b.DO.Set().Records()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: record sets diverge:\n orig %v\n rest %v", when, ra, rb)
	}
	if !a.opts.NoADS {
		if a.DO.Set().Root() != b.DO.Set().Root() {
			t.Fatalf("%s: digests diverge", when)
		}
	}
	if !reflect.DeepEqual(a.LastValue, b.LastValue) {
		t.Fatalf("%s: delivered values diverge", when)
	}
}

// TestSnapshotRefusesPendingTx pins the quiescence guard: a transaction
// sitting in the mempool must fail the snapshot, not be silently dropped.
func TestSnapshotRefusesPendingTx(t *testing.T) {
	f := NewFeed(newSnapChain(), policy.NewMemoryless(2), Options{EpochOps: 4})
	f.Chain.Submit(&chain.Tx{From: "user", To: "du-reader", Method: "read", Args: "k", PayloadBytes: 5})
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a pending transaction")
	}
}
