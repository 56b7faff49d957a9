package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/policy"
	"grub/internal/sim"
	"grub/internal/workload"
	"grub/internal/workload/ycsb"
)

// ownDelivers makes f's SP answer on the owned path: a Tamper hook, even
// one that changes nothing, gets every deliver its own arguments and proof.
func ownDelivers(f *Feed) { f.SP.Tamper = func(*DeliverArgs) {} }

// TestRecycledMatchesOwned drives seeded traces through two feeds of one
// configuration, one answering on recycled deliver slots and one on owned
// copies, and requires after every op the same result, feed Gas, digest,
// counters and DU-side values.
func TestRecycledMatchesOwned(t *testing.T) {
	ycsbTrace := func(spec ycsb.Spec) []workload.Op {
		d := ycsb.NewDriver(spec, 200, 32, 7)
		return append(d.Preload(), d.Generate(1500)...)
	}
	cases := []struct {
		name   string
		policy func() policy.Policy
		opts   Options
		trace  []workload.Op
	}{
		{"ycsb_a", func() policy.Policy { return policy.NewMemoryless(2) }, Options{EpochOps: 8}, ycsbTrace(ycsb.WorkloadA)},
		{"ycsb_b", func() policy.Policy { return policy.NewMemoryless(2) }, Options{EpochOps: 8}, ycsbTrace(ycsb.WorkloadB)},
		{"absent_and_scans", func() policy.Policy { return policy.NewMemoryless(2) }, Options{EpochOps: 8}, mixedTrace(1500, 11)},
		{"deferred", func() policy.Policy { return policy.NewMemoryless(2) }, Options{EpochOps: 8, DeferPromotions: true}, mixedTrace(1500, 12)},
		{"replica_budget", func() policy.Policy { return policy.NewMemoryless(1) }, Options{EpochOps: 4, MaxReplicas: 3}, mixedTrace(1500, 13)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := newTestFeed(tc.policy(), tc.opts)
			own := newTestFeed(tc.policy(), tc.opts)
			ownDelivers(own)
			for i, op := range FromWorkload(tc.trace) {
				a, b := applyOp(rec, op, true), applyOp(own, op, true)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d (%+v): recycled %+v, owned %+v", i, op, a, b)
				}
				if a.Err != "" {
					t.Fatalf("op %d: %s", i, a.Err)
				}
				if rec.FeedGas() != own.FeedGas() {
					t.Fatalf("op %d: feed Gas %d recycled, %d owned", i, rec.FeedGas(), own.FeedGas())
				}
				if rec.DO.Set().Root() != own.DO.Set().Root() {
					t.Fatalf("op %d: digests diverge", i)
				}
				if rec.Delivered() != own.Delivered() || rec.NotFound() != own.NotFound() {
					t.Fatalf("op %d: delivered/not found %d/%d recycled, %d/%d owned",
						i, rec.Delivered(), rec.NotFound(), own.Delivered(), own.NotFound())
				}
				if !reflect.DeepEqual(rec.LastValue, own.LastValue) {
					t.Fatalf("op %d: delivered values diverge", i)
				}
			}
			st := rec.Stats()
			if rec.Delivered() == 0 || st.Replicated == 0 {
				t.Fatalf("trace too tame: delivered %d, replicated %d", rec.Delivered(), st.Replicated)
			}
		})
	}
}

// mixedTrace is a seeded trace over 40 keys: writes, skewed reads (so some
// keys see K consecutive reads and are promoted), absent-key reads and
// scans.
func mixedTrace(n int, seed uint64) []workload.Op {
	r := sim.NewRand(seed)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		switch m := r.Intn(10); {
		case m < 3:
			ops = append(ops, workload.Write(key(r.Intn(40)), []byte(fmt.Sprintf("v%d", i))))
		case m < 4:
			ops = append(ops, workload.Read(fmt.Sprintf("absent-%d", r.Intn(40))))
		case m < 5:
			ops = append(ops, workload.Scan(key(r.Intn(40)), 1+r.Intn(4)))
		default:
			ops = append(ops, workload.Read(key(r.Intn(1+r.Intn(40)))))
		}
	}
	return ops
}

// submitRead submits a DU read of key without mining it.
func submitRead(f *Feed, key string) *chain.Tx {
	s := f.readTxs.get()
	s.key = key
	return s.submit(f.Chain, chain.Tx{From: "user", To: readerAddr, Method: "read", Args: &s.key, PayloadBytes: len(key) + 4})
}

// TestInFlightReadsKeepTheirOwnBuffers submits several reads on a chain with
// a propagation delay before one mine, has the SP withhold one request and
// answer it later next to a fresh one, and requires every callback to have
// received its own key's value: no read transaction, key, gGet argument or
// deliver is reused while still in flight.
func TestInFlightReadsKeepTheirOwnBuffers(t *testing.T) {
	f := timedFeed()
	values := map[string][]byte{}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		values[k] = []byte("value of " + k)
		f.DO.StageWrite(KV{Key: k, Value: values[k]})
	}
	mineFinal(f.Chain, f.DO.FlushEpoch())

	var txs []*chain.Tx
	for _, k := range []string{"a", "b", "c", "d", "zz"} {
		txs = append(txs, submitRead(f, k))
	}
	f.Chain.MineBlock() // one block takes all five
	for i, tx := range txs {
		if !tx.Executed() || tx.Err != nil {
			t.Fatalf("read %d: executed %v, err %v", i, tx.Executed(), tx.Err)
		}
	}
	dropped := 0
	f.SP.Drop = func(req RequestEvent) bool {
		if req.Key == "b" {
			dropped++
			return true
		}
		return false
	}
	if n, err := f.SP.Watch(); err != nil || n != 4 {
		t.Fatalf("Watch answered %d (err %v), want 4 with b withheld", n, err)
	}
	f.SP.Drop = nil
	// The retry of b shares a Watch with a fresh read of e.
	txs = append(txs, submitRead(f, "e"))
	f.Chain.MineUntilEmpty()
	if n, err := f.SP.Watch(); err != nil || n != 2 {
		t.Fatalf("Watch answered %d (err %v), want b's retry and e", n, err)
	}
	for _, tx := range f.Chain.MineUntilEmpty() {
		if tx.Err != nil {
			t.Fatal(tx.Err)
		}
	}
	if dropped != 1 || f.Delivered() != 5 || f.NotFound() != 1 {
		t.Fatalf("dropped %d, delivered %d, not found %d; want 1, 5, 1", dropped, f.Delivered(), f.NotFound())
	}
	if !reflect.DeepEqual(f.LastValue, values) {
		t.Fatalf("callbacks received %q, want each key's own value %q", f.LastValue, values)
	}
	if got := f.takeReads(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d", "zz", "e"}) {
		t.Fatalf("the monitor saw gGets of %q", got)
	}
	if n := len(f.readTxs.slots); n < 5 {
		t.Fatalf("%d read slots for five reads in flight at once", n)
	}
}

// readLog is a policy that records the reads it observes.
type readLog struct {
	policy.Never
	reads []string
}

func (l *readLog) Observe(op policy.Op) ads.State {
	if !op.Write {
		l.reads = append(l.reads, op.Key)
	}
	return ads.NR
}

// TestRejectedDeliverKeepsItsGGet: a read whose deliver is rejected returns
// before the monitor runs, so its gGet waits in the call trace. The next
// take observes it first, under its own key — the honest reads after it have
// not overwritten its arguments — and then exactly the keys that were read.
func TestRejectedDeliverKeepsItsGGet(t *testing.T) {
	log := &readLog{}
	f := newTestFeed(log, Options{EpochOps: 1 << 30})
	for _, k := range []string{"a", "b", "c"} {
		f.DO.StageWrite(KV{Key: k, Value: []byte(k)})
	}
	f.FlushEpoch()

	f.SP.Tamper = func(d *DeliverArgs) { d.Record.Value = []byte("forged!") }
	if err := f.Read("a"); !errors.Is(err, ErrBadProof) {
		t.Fatalf("forged deliver: err = %v, want ErrBadProof", err)
	}
	f.SP.Tamper = nil
	if len(log.reads) != 0 {
		t.Fatalf("the failed read was observed at once: %q", log.reads)
	}
	for _, k := range []string{"b", "c", "missing", "b"} {
		if err := f.Read(k); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"a", "b", "c", "missing", "b"}; !reflect.DeepEqual(log.reads, want) {
		t.Fatalf("the policy observed %q, want %q", log.reads, want)
	}
	if !bytes.Equal(f.LastValue["c"], []byte("c")) || f.LastValue["a"] != nil {
		t.Fatalf("delivered values %q", f.LastValue)
	}
}

// TestTamperedDeliverOwnsItsProof: a Tamper hook may keep the arguments it
// is handed, and what it keeps stays the deliver it saw — record and proof
// still verify against the digest of their time after later answers have
// reused the SP's buffers.
func TestTamperedDeliverOwnsItsProof(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1 << 30})
	for i := 0; i < 64; i++ {
		f.DO.StageWrite(KV{Key: fmt.Sprintf("k%02d", i), Value: []byte("v")})
	}
	f.FlushEpoch()
	root := f.DO.Set().Root()
	var kept []DeliverArgs
	f.SP.Tamper = func(d *DeliverArgs) { kept = append(kept, *d) }
	for i := 0; i < 8; i++ {
		if err := f.Read(fmt.Sprintf("k%02d", i*7)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range kept {
		if d.Record.Key != fmt.Sprintf("k%02d", i*7) {
			t.Fatalf("kept deliver %d now names %q", i, d.Record.Key)
		}
		if err := ads.VerifyRecord(root, d.Record, d.Proof); err != nil {
			t.Fatalf("kept deliver %d no longer verifies: %v", i, err)
		}
	}
}
