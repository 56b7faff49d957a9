package core

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"grub/internal/ads"
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
				p2, opts2 := mk(pol)
				restored, err := RestoreFeed(newSnapChain(), p2, opts2, snap)
				if err != nil {
					t.Fatalf("RestoreFeed: %v", err)
				}
				// A state has one encoding, and the restored feed keeps
				// no byte of the one it was read from.
				again, err := restored.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Enc, snap.Enc) {
					t.Fatal("the restored feed snapshots other bytes than it was restored from")
				}
				for i := range snap.Enc {
					snap.Enc[i] = 0xff
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
// replica budget, so a feed without a budget keeps none (and its snapshot
// carries none), and a restored feed has exactly the original's.
func TestLastTouchOnlyUnderReplicaBudget(t *testing.T) {
	trace := snapTrace(60)
	for _, budget := range []int{0, 2} {
		opts := Options{EpochOps: 4, MaxReplicas: budget}
		orig := NewFeed(newSnapChain(), policy.NewMemoryless(1), opts)
		ApplyOps(orig, trace[:33])
		if kept := len(orig.DO.lastTouch) > 0 && orig.DO.lruTick > 0; kept != (budget > 0) {
			t.Fatalf("budget %d: lruTick %d and %d lastTouch entries", budget, orig.DO.lruTick, len(orig.DO.lastTouch))
		}
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreFeed(newSnapChain(), policy.NewMemoryless(1), opts, snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.DO.lruTick != orig.DO.lruTick || !maps.Equal(restored.DO.lastTouch, orig.DO.lastTouch) {
			t.Fatalf("budget %d: restored lruTick %d and %d lastTouch entries, want %d and %d", budget,
				restored.DO.lruTick, len(restored.DO.lastTouch), orig.DO.lruTick, len(orig.DO.lastTouch))
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
	key := "k"
	tx := &chain.Tx{From: "user", To: "du-reader", Method: "read", Args: &key, PayloadBytes: 5}
	f.Chain.Submit(tx)
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a pending transaction")
	}
	// The refusal is about the mempool, not the transaction: mined, the
	// same read is one the reader accepts.
	f.Chain.MineUntilEmpty()
	if tx.Err != nil {
		t.Fatalf("the pending read was malformed: %v", tx.Err)
	}
}

// TestWriteDemotionAcrossSnapshot drives a replicated key through the path
// where the DO skips the set lookup: a write whose policy target is NR. The
// key is written, read twice (served by its replica; K = 3 keeps it NR in
// the policy) and the feed snapshotted and restored mid-epoch; the flush
// must then demote it with exactly one eviction, with the Gas and root of
// the original and of an identical feed that never snapshotted.
func TestWriteDemotionAcrossSnapshot(t *testing.T) {
	const key = "k"
	opts := Options{EpochOps: 64}
	drive := func() *Feed {
		f := NewFeed(newSnapChain(), policy.NewMemoryless(3), opts)
		f.Write(KV{Key: key, Value: []byte("v1")})
		f.FlushEpoch()
		for i := 0; i < 3; i++ {
			if err := f.Read(key); err != nil {
				t.Fatal(err)
			}
		}
		if rec, _ := f.DO.Set().Get(key); rec.State != ads.R {
			t.Fatalf("after three reads %s is %v, want R", key, rec.State)
		}
		f.Write(KV{Key: key, Value: []byte("v2")})
		for i := 0; i < 2; i++ {
			if err := f.Read(key); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	// flush ends the epoch and returns the update's evictions.
	flush := func(f *Feed) []string {
		tx := f.DO.FlushEpoch()
		if tx == nil {
			t.Fatal("the flush submitted no update")
		}
		evicted := slices.Clone(tx.Args.(*UpdateArgs).Evictions)
		f.Chain.MineUntilEmpty()
		if tx.Err != nil {
			t.Fatal(tx.Err)
		}
		return evicted
	}

	ref, orig := drive(), drive()
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFeed(newSnapChain(), policy.NewMemoryless(3), opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    *Feed
	}{{"never snapshotted", ref}, {"snapshotted", orig}, {"restored", restored}} {
		name, f := c.name, c.f
		if ev := flush(f); !slices.Equal(ev, []string{key}) {
			t.Fatalf("%s: the flush evicted %q, want [%s]", name, ev, key)
		}
		if rec, _ := f.DO.Set().Get(key); rec.State != ads.NR || string(rec.Value) != "v2" {
			t.Fatalf("%s: %s ends as %+v, want NR v2", name, key, rec)
		}
		// Each feed pays one view's load before its Gas is compared.
		if _, ok := managerSlot(f, kvPrefix+key); ok {
			t.Fatalf("%s: the manager still holds a replica of %s", name, key)
		}
		if f.FeedGas() != ref.FeedGas() {
			t.Fatalf("%s: feed Gas %d, the never-snapshotted feed's %d", name, f.FeedGas(), ref.FeedGas())
		}
		requireFeedsEqual(t, name, ref, f)
	}
}

// TestSnapshotAllocatesOnceFromSecondImage: a feed's second image, and a
// restored feed's first, start their buffer at the last image's length, so
// a snapshot of an unchanged feed allocates under twice its image's bytes
// (one buffer plus the sorted key slices), not the doublings of growing
// a buffer from nothing.
func TestSnapshotAllocatesOnceFromSecondImage(t *testing.T) {
	keys := roundTripKeys()
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 1 << 30})
	for _, k := range keys {
		f.DO.StageWrite(KV{Key: k, Value: make([]byte, 32)})
	}
	f.FlushEpoch()
	first, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreFeed(fastChain(), policy.NewMemoryless(2), f.opts, first)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		feed *Feed
	}{{"second", f}, {"restored", r}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := tc.feed.Snapshot()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(snap.Enc)); got >= limit {
			t.Errorf("%s snapshot allocated %d bytes for a %d-byte image (want < %d)", tc.name, got, len(snap.Enc), limit)
		}
	}
}
