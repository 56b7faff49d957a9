package core

import (
	"bytes"
	"testing"

	"grub/internal/chain"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
)

// These tests exercise the paper's §3.4 consistency theorems on a chain with
// non-trivial timing: block interval B, propagation delay Pt, finality F and
// the DO's batching epoch E.

const (
	tB  = 10 // block interval
	tPt = 2  // propagation delay
	tF  = 3  // finality depth
	tE  = 20 // DO batching epoch (time units)
)

func timedFeed() *Feed {
	c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: tB, PropagationDelay: tPt, FinalityDepth: tF}, gas.DefaultSchedule())
	return NewFeed(c, policy.Never{}, Options{EpochOps: 1 << 30}) // manual flush control
}

// mineFinal mines until the transaction's block is final (F blocks deep).
func mineFinal(c *chain.Chain, tx *chain.Tx) {
	for !tx.Executed() {
		c.MineBlock()
	}
	for c.FinalizedHeight() < tx.Block {
		c.MineBlock()
	}
}

// Theorem 3.2 (epoch-bounded freshness): a gGet issued sequentially after a
// gPut — i.e. more than E + Pt + B*F after it — returns the fresh value.
func TestTheorem32FreshnessBound(t *testing.T) {
	f := timedFeed()
	c := f.Chain
	t1 := c.Clock().Now()

	f.DO.StageWrite(KV{Key: "k", Value: []byte("fresh")})
	// The DO batches for up to E time units before sending the update.
	c.Clock().Advance(tE)
	tx := f.DO.FlushEpoch()
	if tx == nil {
		t.Fatal("no update transaction")
	}
	mineFinal(c, tx)
	elapsed := c.Clock().Now() - t1
	bound := sim.Time(tE + tPt + tB*tF)
	// The protocol must have finalized within the theorem's bound; our
	// simulator mines greedily so this is the tight case.
	if elapsed > bound+tB {
		t.Fatalf("finalization took %d, theorem bound is %d", elapsed, bound)
	}
	// A read issued now (sequentially after) must observe the fresh value.
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("fresh")) {
		t.Fatalf("sequential gGet read %q, want fresh", f.LastValue["k"])
	}
}

// Theorem 3.1 (concurrent gPut/gGet): a read issued inside the update window
// may legitimately observe the previous state; once past the window, every
// read observes the new one. This pins down the non-deterministic-then-
// convergent behaviour the theorem describes.
func TestTheorem31ConcurrentWindow(t *testing.T) {
	f := timedFeed()
	c := f.Chain

	// Install v1 and finalize it.
	f.DO.StageWrite(KV{Key: "k", Value: []byte("v1")})
	tx := f.DO.FlushEpoch()
	mineFinal(c, tx)

	// Concurrent update: stage v2 but do not flush yet (inside epoch E).
	f.DO.StageWrite(KV{Key: "k", Value: []byte("v2")})

	// A concurrent read (t1 < t2 < t1 + E + Pt + B*F) may see the old
	// value: the SP still serves v1 under the still-current digest.
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("v1")) {
		t.Fatalf("concurrent gGet read %q; expected the stale-but-authenticated v1", f.LastValue["k"])
	}

	// After the epoch closes and finalizes, all reads agree on v2.
	tx2 := f.DO.FlushEpoch()
	mineFinal(c, tx2)
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("v2")) {
		t.Fatalf("post-window gGet read %q, want v2", f.LastValue["k"])
	}
}

// A stale read is still authenticated: the concurrent window never exposes
// forged data, only bounded-stale data. (Freshness is epoch-bounded;
// integrity is unconditional.)
func TestConcurrentWindowIntegrity(t *testing.T) {
	f := timedFeed()
	f.DO.StageWrite(KV{Key: "k", Value: []byte("v1")})
	tx := f.DO.FlushEpoch()
	mineFinal(f.Chain, tx)

	f.DO.StageWrite(KV{Key: "k", Value: []byte("v2")})
	// The SP tries to serve a forged "v2" early (it cannot: the digest
	// on-chain still commits to v1).
	f.SP.Tamper = func(d *DeliverArgs) { d.Record.Value = []byte("v2-forged") }
	if err := f.Read("k"); err == nil {
		t.Fatal("forged early delivery accepted during concurrent window")
	}
}

// Reads of never-written keys are proven absent even while unrelated updates
// are in flight.
func TestAbsenceDuringConcurrentUpdates(t *testing.T) {
	f := timedFeed()
	f.DO.StageWrite(KV{Key: "a", Value: []byte("v")})
	tx := f.DO.FlushEpoch()
	mineFinal(f.Chain, tx)
	f.DO.StageWrite(KV{Key: "b", Value: []byte("w")}) // in flight
	if err := f.Read("zzz"); err != nil {
		t.Fatal(err)
	}
	if f.NotFound() != 1 {
		t.Fatalf("NotFound = %d, want 1", f.NotFound())
	}
}
