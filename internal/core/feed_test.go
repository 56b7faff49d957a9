package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
	"grub/internal/workload"
)

func fastChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
}

func newTestFeed(p policy.Policy, opts Options) *Feed {
	return NewFeed(fastChain(), p, opts)
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "ether", Value: []byte("150USD")})
	if err := f.Read("ether"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if f.Delivered() != 1 {
		t.Fatalf("Delivered = %d, want 1", f.Delivered())
	}
	if !bytes.Equal(f.LastValue["ether"], []byte("150USD")) {
		t.Fatalf("LastValue = %q", f.LastValue["ether"])
	}
}

func TestNeverPolicyReadsGoThroughDeliver(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("v")})
	gasBefore := f.FeedGas()
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	readGas := f.FeedGas() - gasBefore
	// An NR read must cost at least a deliver transaction (21000+).
	if readGas < 21000 {
		t.Fatalf("NR read cost %d gas, expected a deliver tx (>21000)", readGas)
	}
	// The manager must hold no replica.
	if f.Chain.StorageSize("grub-manager") != 1 { // digest only
		t.Fatalf("manager slots = %d, want 1 (digest only)", f.Chain.StorageSize("grub-manager"))
	}
}

func TestAlwaysPolicyReadsAreOnChain(t *testing.T) {
	f := newTestFeed(policy.Always{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("v")})
	gasBefore := f.FeedGas()
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	readGas := f.FeedGas() - gasBefore
	// An R read is an sload inside an internal call: far below a tx.
	if readGas >= 21000 {
		t.Fatalf("R read cost %d gas; replica not used", readGas)
	}
	if f.Delivered() != 1 {
		t.Fatalf("Delivered = %d", f.Delivered())
	}
}

func TestMemorylessConvergesToReplication(t *testing.T) {
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 4})
	f.Write(KV{Key: "k", Value: []byte("v1")})
	f.FlushEpoch()
	// Two reads promote the record (K=2); the transition is actuated at
	// the next epoch flush.
	for i := 0; i < 2; i++ {
		if err := f.Read("k"); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushEpoch()
	rec, ok := f.DO.Set().Get("k")
	if !ok || rec.State != ads.R {
		t.Fatalf("record state = %+v, want R after K consecutive reads", rec)
	}
	// Now the read must be served on-chain.
	before := f.FeedGas()
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if g := f.FeedGas() - before; g >= 21000 {
		t.Fatalf("read after promotion cost %d, want on-chain read", g)
	}
	// A write demotes (memoryless resets on write): next epoch evicts.
	f.Write(KV{Key: "k", Value: []byte("v2")})
	f.FlushEpoch()
	rec, _ = f.DO.Set().Get("k")
	if rec.State != ads.NR {
		t.Fatalf("state after write = %v, want NR", rec.State)
	}
}

func TestDemotionEvictsStaleReplica(t *testing.T) {
	// Regression: a write that demotes a replicated record must evict the
	// on-chain replica, or gGet keeps serving the stale value forever.
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 4})
	f.Write(KV{Key: "k", Value: []byte("v1")})
	f.FlushEpoch()
	for i := 0; i < 2; i++ {
		if err := f.Read("k"); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushEpoch() // record replicated as v1
	rec, _ := f.DO.Set().Get("k")
	if rec.State != ads.R {
		t.Fatalf("setup: state = %v, want R", rec.State)
	}
	// The write demotes the record; the flush must evict the replica.
	f.Write(KV{Key: "k", Value: []byte("v2")})
	f.FlushEpoch()
	if got := f.Chain.StorageSize("grub-manager"); got != 1 { // digest only
		t.Fatalf("manager slots = %d, want 1 (stale replica not evicted)", got)
	}
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("v2")) {
		t.Fatalf("read %q after demotion, want v2 (stale replica served)", f.LastValue["k"])
	}
}

func TestUpdatedValueVisibleAfterEpoch(t *testing.T) {
	f := newTestFeed(policy.NewMemoryless(1), Options{EpochOps: 1})
	for i := 0; i < 5; i++ {
		f.Write(KV{Key: "k", Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("v4")) {
		t.Fatalf("read %q, want v4", f.LastValue["k"])
	}
}

func TestReadMissingKeyProvenAbsent(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "exists", Value: []byte("v")})
	if err := f.Read("missing"); err != nil {
		t.Fatal(err)
	}
	if f.NotFound() != 1 {
		t.Fatalf("NotFound = %d, want 1 (absence proof path)", f.NotFound())
	}
	if f.Delivered() != 0 {
		t.Fatalf("Delivered = %d, want 0", f.Delivered())
	}
}

func TestDigestTracksDORoot(t *testing.T) {
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 2})
	trace := workload.Ratio("k", 1, 3, 6, 32, 7)
	if err := f.Process(trace); err != nil {
		t.Fatal(err)
	}
	f.FlushEpoch()
	// The digest in contract storage is the record set's root.
	root := f.DO.Set().Root()
	if got, _ := managerSlot(f, slotRoot); !bytes.Equal(got, root[:]) {
		t.Fatalf("on-chain digest %x, record set root %x", got, root[:])
	}
}

// managerSlot reads one of the manager contract's storage slots through a
// view method the test registers on it. Like every View, it charges the
// manager's Gas ledger for the load.
func managerSlot(f *Feed, slot string) ([]byte, bool) {
	f.Chain.Register(managerAddr, "testSlot", func(ctx *chain.Ctx, args any) (any, error) {
		if v, ok := ctx.Load(args.(string)); ok {
			return v, nil
		}
		return nil, nil
	})
	v, _ := f.Chain.View(managerAddr, "testSlot", slot)
	b, ok := v.([]byte)
	return b, ok
}

func TestForgedValueRejected(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("honest")})
	// The SP forges the delivered value; the manager must reject it and
	// the callback must never fire.
	f.SP.Tamper = func(d *DeliverArgs) { d.Record.Value = []byte("forged!") }
	err := f.Read("k")
	if err == nil {
		t.Fatal("forged deliver accepted")
	}
	if !errors.Is(err, ErrBadProof) {
		t.Fatalf("err = %v, want ErrBadProof", err)
	}
	if f.Delivered() != 0 {
		t.Fatal("callback fired on forged data")
	}
}

func TestReplayedStaleValueRejected(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("old")})
	// Capture the old record+proof.
	var stale *DeliverArgs
	f.SP.Tamper = func(d *DeliverArgs) {
		cp := *d
		stale = &cp
	}
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	// Advance the feed: new value, new digest.
	f.Write(KV{Key: "k", Value: []byte("new")})
	// Replay the stale deliver: must fail against the fresh digest.
	f.SP.Tamper = func(d *DeliverArgs) { *d = *stale }
	err := f.Read("k")
	if !errors.Is(err, ErrBadProof) {
		t.Fatalf("replayed stale deliver: err = %v, want ErrBadProof", err)
	}
}

func TestStaleCloneDeliverRejected(t *testing.T) {
	// DO and SP share one record set, so what keeps an SP from serving an
	// old version is not a private copy falling behind — it is the
	// contract: a deliver built from a version of the set frozen before an
	// epoch's writes fails against the digest that epoch put on-chain.
	f := newTestFeed(policy.Never{}, Options{EpochOps: 2})
	f.Write(KV{Key: "k", Value: []byte("old")})
	f.Write(KV{Key: "other", Value: []byte("x")}) // epoch boundary: digest D1
	stale := f.DO.Set().Clone()
	f.Write(KV{Key: "k", Value: []byte("new")})
	f.Write(KV{Key: "other", Value: []byte("y")}) // epoch boundary: digest D2

	f.SP.Tamper = func(d *DeliverArgs) {
		rec, proof, err := stale.ProveKey(d.Record.Key)
		if err != nil {
			t.Fatal(err)
		}
		// A perfectly good proof — of the superseded version.
		if err := ads.VerifyRecord(stale.Root(), rec, proof); err != nil {
			t.Fatal(err)
		}
		d.Record, d.Proof = rec, proof
	}
	if err := f.Read("k"); !errors.Is(err, ErrBadProof) {
		t.Fatalf("deliver from a stale clone: err = %v, want ErrBadProof", err)
	}
	if f.Delivered() != 0 {
		t.Fatal("callback fired on stale data")
	}
	f.SP.Tamper = nil
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.LastValue["k"], []byte("new")) {
		t.Fatalf("honest read after the stale attempt = %q, want new", f.LastValue["k"])
	}
}

func TestForgedStateBitRejected(t *testing.T) {
	// A malicious SP flipping the NR state bit to R (to trick the manager
	// into wasting replication Gas) must be caught: the state is part of
	// the authenticated leaf.
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("v")})
	f.SP.Tamper = func(d *DeliverArgs) { d.Record.State = ads.R }
	if err := f.Read("k"); !errors.Is(err, ErrBadProof) {
		t.Fatalf("state-forging deliver: err = %v, want ErrBadProof", err)
	}
}

// TestForgeriesRejectedOnSealedSet repeats the forgeries above on the path
// where the manager's fold reads the DO's sealed nodes: after a genuine
// deliver of the same key, a forged value, a forged state bit and each path
// sibling flipped in turn must still fail with ErrBadProof, fire no
// callback, and leave the honest read working; so must a forged value folded
// through a dirty path.
func TestForgeriesRejectedOnSealedSet(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	for i := 0; i < 24; i++ {
		f.Write(KV{Key: fmt.Sprintf("k%02d", i), Value: []byte{byte(i)}})
	}
	const key = "k13"
	var steps int
	f.SP.Tamper = func(d *DeliverArgs) { steps = len(d.Proof.Path) }
	if err := f.Read(key); err != nil {
		t.Fatalf("genuine deliver: %v", err)
	}
	forgeries := map[string]func(*DeliverArgs){
		"value":     func(d *DeliverArgs) { d.Record.Value = []byte("forged!") },
		"state bit": func(d *DeliverArgs) { d.Record.State = ads.R },
	}
	for i := 0; i < steps; i++ {
		forgeries[fmt.Sprintf("sibling %d of %d", i, steps)] = func(d *DeliverArgs) { d.Proof.Path[i].Hash[31] ^= 1 }
	}
	for name, forge := range forgeries {
		f.SP.Tamper = forge
		if err := f.Read(key); !errors.Is(err, ErrBadProof) {
			t.Fatalf("%s forged on the sealed set: err = %v, want ErrBadProof", name, err)
		}
	}
	if f.Delivered() != 1 {
		t.Fatalf("Delivered = %d, want the one genuine deliver", f.Delivered())
	}
	// Rewriting the record with its own value dirties its path and changes
	// no hash: the fold hashes those steps, and still tells the forged
	// deliver from the genuine one.
	redirty := func() { f.DO.Set().Put(ads.Record{Key: key, State: ads.NR, Value: []byte{13}}) }
	f.SP.Tamper = func(d *DeliverArgs) { redirty(); d.Record.Value = []byte("forged!") }
	if err := f.Read(key); !errors.Is(err, ErrBadProof) {
		t.Fatalf("value forged through a dirty path: err = %v, want ErrBadProof", err)
	}
	f.SP.Tamper = func(*DeliverArgs) { redirty() }
	if err := f.Read(key); err != nil {
		t.Fatalf("genuine deliver through a dirty path: %v", err)
	}
	f.SP.Tamper = nil
	if err := f.Read(key); err != nil {
		t.Fatalf("honest read after the forgeries: %v", err)
	}
	if f.Delivered() != 3 || !bytes.Equal(f.LastValue[key], []byte{13}) {
		t.Fatalf("Delivered = %d, LastValue = %x", f.Delivered(), f.LastValue[key])
	}
}

// TestNilAbsenceProofRejected sends a deliverAbsent with no proof: the
// manager must refuse it with ErrBadProof, as deliver refuses a nil
// membership proof, rather than fault while metering it.
func TestNilAbsenceProofRejected(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	for _, c := range []struct {
		method string
		args   any
	}{
		{"deliverAbsent", &DeliverAbsentArgs{Key: "k"}},
		{"deliver", &DeliverArgs{Record: ads.Record{Key: "k"}}},
	} {
		tx := &chain.Tx{From: "mallory", To: "grub-manager", Method: c.method, Args: c.args}
		f.Chain.Submit(tx)
		f.Chain.MineUntilEmpty()
		if !errors.Is(tx.Err, ErrBadProof) {
			t.Errorf("%s with a nil proof: err = %v, want ErrBadProof", c.method, tx.Err)
		}
	}
}

func TestFailedReadThenEpochBoundary(t *testing.T) {
	// A read whose deliver is rejected returns before the monitor runs, so
	// its gGet is still in the call trace when the next epoch boundary
	// comes. The flush observes it but submits no promotion of its own (it
	// has no error to return one through): the decision rides the next
	// update, as a deferred one does.
	f := newTestFeed(policy.NewMemoryless(1), Options{EpochOps: 2})
	f.Write(KV{Key: "k", Value: []byte("v")})
	f.Write(KV{Key: "a", Value: []byte("x")}) // epoch boundary
	f.SP.Tamper = func(d *DeliverArgs) { d.Record.Value = []byte("forged!") }
	if err := f.Read("k"); !errors.Is(err, ErrBadProof) {
		t.Fatalf("forged deliver: err = %v, want ErrBadProof", err)
	}
	f.SP.Tamper = nil
	if f.DO.PendingPromotion("k") {
		t.Fatal("setup: the failed read was already observed")
	}

	f.Write(KV{Key: "a", Value: []byte("y")})
	f.Write(KV{Key: "b", Value: []byte("z")}) // epoch boundary
	if rec, _ := f.DO.Set().Get("k"); rec.State != ads.NR {
		t.Fatalf("state after the boundary = %v: the flush promoted eagerly", rec.State)
	}
	if !f.DO.PendingPromotion("k") {
		t.Fatal("the flush did not observe the failed read's gGet (K=1 decides R)")
	}
	if calls := f.Chain.TakeCalls(); len(calls) != 0 {
		t.Fatalf("%d call records outlived the epoch boundary", len(calls))
	}
	f.FlushEpoch()
	if rec, _ := f.DO.Set().Get("k"); rec.State != ads.R {
		t.Fatalf("state after the next flush = %v, want R", rec.State)
	}
}

func TestOmittingSPStallsButDoesNotCorrupt(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("v")})
	f.SP.Drop = func(RequestEvent) bool { return true }
	if err := f.Read("k"); err != nil {
		t.Fatalf("dropped request errored the read path: %v", err)
	}
	if f.Delivered() != 0 {
		t.Fatal("omitted request still delivered")
	}
	// Availability is out of scope (paper trust model); once the SP
	// relents the pending request is answered.
	f.SP.Drop = nil
	if _, err := f.SP.Watch(); err != nil {
		t.Fatal(err)
	}
	f.Chain.MineUntilEmpty()
	if f.Delivered() != 1 {
		t.Fatalf("Delivered = %d after SP recovery", f.Delivered())
	}
}

func TestUpdateFromNonOwnerRejected(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	f.Write(KV{Key: "k", Value: []byte("v")})
	tx := &chain.Tx{
		From:   "mallory",
		To:     "grub-manager",
		Method: "update",
		Args:   &UpdateArgs{HasDigest: true},
	}
	f.Chain.Submit(tx)
	f.Chain.MineUntilEmpty()
	if !errors.Is(tx.Err, ErrUnauthorized) {
		t.Fatalf("foreign update: err = %v, want ErrUnauthorized", tx.Err)
	}
}

func TestBL2CheaperThanBL1OnReadHeavy(t *testing.T) {
	trace := workload.Ratio("k", 1, 16, 8, 32, 3)
	bl1 := newTestFeed(policy.Never{}, Options{EpochOps: 32})
	bl2 := newTestFeed(policy.Always{}, Options{EpochOps: 1, NoADS: true})
	if err := bl1.Process(trace); err != nil {
		t.Fatal(err)
	}
	if err := bl2.Process(trace); err != nil {
		t.Fatal(err)
	}
	if bl2.FeedGas() >= bl1.FeedGas() {
		t.Fatalf("read-heavy: BL2 (%d) not cheaper than BL1 (%d)", bl2.FeedGas(), bl1.FeedGas())
	}
}

func TestBL1CheaperThanBL2OnWriteOnly(t *testing.T) {
	trace := workload.Ratio("k", 1, 0, 64, 32, 3)
	bl1 := newTestFeed(policy.Never{}, Options{EpochOps: 32})
	bl2 := newTestFeed(policy.Always{}, Options{EpochOps: 1, NoADS: true})
	if err := bl1.Process(trace); err != nil {
		t.Fatal(err)
	}
	if err := bl2.Process(trace); err != nil {
		t.Fatal(err)
	}
	// §2.3: write-only favours BL1 by a large factor.
	if f := float64(bl2.FeedGas()) / float64(bl1.FeedGas()); f < 5 {
		t.Fatalf("write-only: BL2/BL1 gas ratio = %.1f, want substantial (>5)", f)
	}
}

func TestGRuBBeatsWorstStaticBaseline(t *testing.T) {
	// Under a phase-changing workload GRuB must beat at least the worse
	// of the two static baselines in each phase mix (the paper's headline
	// claim evaluated end-to-end in the benches; here a smoke version).
	var trace []workload.Op
	trace = append(trace, workload.Ratio("k", 1, 0, 32, 32, 3)...) // write-only phase
	trace = append(trace, workload.Ratio("k", 1, 16, 8, 32, 4)...) // read-heavy phase
	run := func(p policy.Policy, opts Options) gas.Gas {
		f := newTestFeed(p, opts)
		if err := f.Process(trace); err != nil {
			t.Fatal(err)
		}
		return f.FeedGas()
	}
	grub := run(policy.NewMemoryless(2), Options{EpochOps: 32})
	bl1 := run(policy.Never{}, Options{EpochOps: 32})
	bl2 := run(policy.Always{}, Options{EpochOps: 1, NoADS: true})
	worst := bl1
	if bl2 > worst {
		worst = bl2
	}
	if grub >= worst {
		t.Fatalf("GRuB (%d) no better than worst static baseline (bl1=%d bl2=%d)", grub, bl1, bl2)
	}
}

func TestReplicaBudgetLRUEviction(t *testing.T) {
	f := newTestFeed(policy.Always{}, Options{EpochOps: 1, MaxReplicas: 2})
	for i := 0; i < 5; i++ {
		f.Write(KV{Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
	}
	// Only 2 replicas may remain on-chain (plus the digest slot).
	replicas := 0
	for _, rec := range f.DO.Set().Records() {
		if rec.State == ads.R {
			replicas++
		}
	}
	if replicas != 2 {
		t.Fatalf("replicas = %d, want budget 2", replicas)
	}
	if got := f.Chain.StorageSize("grub-manager"); got != 3 { // digest + 2 replicas
		t.Fatalf("manager slots = %d, want 3", got)
	}
	// The survivors must be the most recently touched (k3, k4).
	for _, k := range []string{"k3", "k4"} {
		rec, _ := f.DO.Set().Get(k)
		if rec.State != ads.R {
			t.Fatalf("%s evicted; LRU should keep most recent", k)
		}
	}
}

// rescanVictims is the replica-budget selection written the slow way: build
// the whole record list, then rescan the replicated keys once per eviction
// for the least recently touched, the first in key order winning ties.
func rescanVictims(recs []ads.Record, lastTouch map[string]uint64, excess int) []string {
	var replicated, victims []string
	for _, rec := range recs {
		if rec.State == ads.R {
			replicated = append(replicated, rec.Key)
		}
	}
	for ; excess > 0 && len(replicated) > 0; excess-- {
		at := 0
		for i, k := range replicated {
			if lastTouch[k] < lastTouch[replicated[at]] {
				at = i
			}
		}
		victims = append(victims, replicated[at])
		replicated = append(replicated[:at], replicated[at+1:]...)
	}
	return victims
}

// TestReplicaBudgetMatchesRescan checks the one-pass victim selection
// against rescanVictims on random sets, budgets and touch times, with ties
// and untouched replicas common.
func TestReplicaBudgetMatchesRescan(t *testing.T) {
	r := sim.NewRand(5)
	for trial := 0; trial < 500; trial++ {
		d := NewDO(fastChain(), "grub-manager", "do", policy.Never{}, 1+r.Intn(30), false)
		for i, n := 0, r.Intn(100); i < n; i++ {
			k := fmt.Sprintf("k%03d", r.Intn(150))
			d.set.Put(ads.Record{Key: k, State: ads.State(r.Intn(2)), Value: []byte("v")})
			if r.Intn(4) > 0 {
				d.lastTouch[k] = uint64(r.Intn(12))
			}
		}
		replicas := d.set.CountState(ads.R)
		want := rescanVictims(d.set.Records(), d.lastTouch, replicas-d.maxReplicas)
		var up UpdateArgs
		d.enforceReplicaBudget(&up)
		if fmt.Sprint(up.Evictions) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%d replicas, budget %d): evicted %v, rescan selects %v",
				trial, replicas, d.maxReplicas, up.Evictions, want)
		}
		if got := d.set.CountState(ads.R); got != min(replicas, d.maxReplicas) {
			t.Fatalf("trial %d: %d replicas after enforcing budget %d", trial, got, d.maxReplicas)
		}
	}
}

func TestMonitorObservesReadsFromAnyDU(t *testing.T) {
	// The DO learns of reads from the chain's call trace alone: gGets
	// issued by a DU contract the feed never heard of, driven through
	// ReadFrom, reach the policy and trigger the promotion.
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 1 << 30}) // never auto-flush
	f.Write(KV{Key: "k", Value: []byte("v")})
	f.FlushEpoch()

	const du chain.Address = "du-app"
	got := 0
	f.Chain.Register(du, "peek", func(ctx *chain.Ctx, args any) (any, error) {
		return ctx.Call("grub-manager", "gGet", &GetArgs{
			Key:      args.(string),
			Callback: Callback{Contract: du, Method: "got"},
		})
	})
	f.Chain.Register(du, "got", func(ctx *chain.Ctx, args any) (any, error) {
		got++
		return nil, nil
	})
	for i := 0; i < 2; i++ {
		if rec, _ := f.DO.Set().Get("k"); rec.State != ads.NR {
			t.Fatalf("promoted after %d reads, K=2", i)
		}
		if err := f.ReadFrom(du, "peek", "k", 5); err != nil {
			t.Fatal(err)
		}
	}
	if got != 2 {
		t.Fatalf("DU callback fired %d times, want 2", got)
	}
	if rec, _ := f.DO.Set().Get("k"); rec.State != ads.R {
		t.Fatalf("state after K reads through %s = %v, want R (monitor missed them)", du, rec.State)
	}
	// The promotion was actuated eagerly: the next read is an on-chain one.
	before := f.FeedGas()
	if err := f.ReadFrom(du, "peek", "k", 5); err != nil {
		t.Fatal(err)
	}
	if g := f.FeedGas() - before; g >= 21000 {
		t.Fatalf("read after promotion cost %d, want on-chain read", g)
	}
}

func TestOnChainTraceBaselineCostsMore(t *testing.T) {
	trace := workload.Ratio("k", 1, 4, 12, 32, 9)
	off := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 8})
	on := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 8, Trace: TraceReadsWrites})
	if err := off.Process(trace); err != nil {
		t.Fatal(err)
	}
	if err := on.Process(trace); err != nil {
		t.Fatal(err)
	}
	if on.FeedGas() <= off.FeedGas() {
		t.Fatalf("on-chain trace (%d) not costlier than off-chain control plane (%d)", on.FeedGas(), off.FeedGas())
	}
}

func TestProcessSeriesAccounting(t *testing.T) {
	f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 8})
	setupGas := f.FeedGas() // genesis digest
	trace := workload.Ratio("k", 1, 3, 8, 32, 2)
	series, err := f.ProcessSeries(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(trace)/8 {
		t.Fatalf("series length = %d, want %d", len(series), len(trace)/8)
	}
	var sum gas.Gas
	for _, s := range series {
		if s.Ops != 8 {
			t.Fatalf("epoch ops = %d", s.Ops)
		}
		if s.GasPerOp() <= 0 {
			t.Fatalf("epoch %d gas/op = %v", s.Epoch, s.GasPerOp())
		}
		sum += s.FeedGas
	}
	if sum+setupGas != f.FeedGas() {
		t.Fatalf("series (%d) + setup (%d) != FeedGas (%d)", sum, setupGas, f.FeedGas())
	}
}

func TestScanExpandsToPointReads(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 4})
	for i := 0; i < 6; i++ {
		f.Write(KV{Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
	}
	f.FlushEpoch()
	if err := f.Process([]workload.Op{workload.Scan("k2", 3)}); err != nil {
		t.Fatal(err)
	}
	if f.Delivered() != 3 {
		t.Fatalf("scan delivered %d records, want 3", f.Delivered())
	}
	for _, k := range []string{"k2", "k3", "k4"} {
		if _, ok := f.LastValue[k]; !ok {
			t.Fatalf("scan missed %s", k)
		}
	}
}

func TestFeedGasAttributionExcludesApp(t *testing.T) {
	f := newTestFeed(policy.Always{}, Options{EpochOps: 1, NoADS: true})
	f.Write(KV{Key: "k", Value: []byte("v")})
	if err := f.Read("k"); err != nil {
		t.Fatal(err)
	}
	feed := f.FeedGas()
	app := f.Chain.GasOf(readerAddr)
	total := f.Chain.TotalGas()
	if feed+app != total {
		t.Fatalf("attribution leak: feed %d + app %d != total %d", feed, app, total)
	}
	// The DU read tx base (21000) must be on the app side.
	if app < 21000 {
		t.Fatalf("app gas = %d, read tx base missing", app)
	}
}

// TestRunOpsMatchesApplyOps: a replay that builds no results leaves the feed
// exactly where ApplyOps does, batch by batch: digest, Gas, delivered and
// missed reads, the delivered values and the stats.
func TestRunOpsMatchesApplyOps(t *testing.T) {
	applied := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 8})
	run := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 8})
	ops := FromWorkload(mixedTrace(1500, 21))
	for lo := 0; lo < len(ops); lo += 50 {
		batch := ops[lo:min(lo+50, len(ops))]
		ApplyOps(applied, batch)
		RunOps(run, batch)
		if applied.DO.Set().Root() != run.DO.Set().Root() || applied.FeedGas() != run.FeedGas() ||
			applied.Delivered() != run.Delivered() || applied.NotFound() != run.NotFound() ||
			!reflect.DeepEqual(applied.LastValue, run.LastValue) || !reflect.DeepEqual(applied.Stats(), run.Stats()) {
			t.Fatalf("batch at op %d: RunOps leaves the feed elsewhere than ApplyOps", lo)
		}
	}
	if applied.Delivered() == 0 || applied.Stats().Replicated == 0 {
		t.Fatalf("trace too tame: delivered %d, replicated %d", applied.Delivered(), applied.Stats().Replicated)
	}
}
