package core

import (
	"fmt"
	"testing"

	"grub/internal/policy"
)

// roundTripRecords is the record count of the feeds the per-op allocation
// ceilings are measured on: deep enough that a root path is 15-20 nodes.
const roundTripRecords = 10_000

// roundTrip is one feed shape of the per-op allocation pins: a preloaded
// feed and one operation on it, called with a rotating index.
type roundTrip struct {
	name string
	// ceiling is the allocations one op may make, averaged over runs.
	ceiling float64
	// policy and epochOps configure the preloaded feed.
	policy   policy.Policy
	epochOps int
	// opsPerRun is how many ops one call of run executes.
	opsPerRun int
	run       func(f *Feed, keys []string, i int) error
	// pooled marks an op that draws from a sync.Pool, whose count does not
	// hold under the race detector.
	pooled bool
}

// roundTripKeys names the preloaded records.
func roundTripKeys() []string {
	keys := make([]string, roundTripRecords)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}

// feed builds the round trip's feed: every key (32-byte values) in one
// flushed epoch. Reads run with an epoch that never ends, so a read's count
// is the read alone. A restored feed is that feed rebuilt from its snapshot
// on a fresh chain, so it carries none of the original's recycled buffers.
func (rt roundTrip) feed(t testing.TB, keys []string, restored bool) *Feed {
	f := newTestFeed(rt.policy, Options{EpochOps: rt.epochOps})
	for _, k := range keys {
		f.DO.StageWrite(KV{Key: k, Value: make([]byte, 32)})
	}
	f.FlushEpoch()
	if !restored {
		return f
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreFeed(fastChain(), rt.policy, f.opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func roundTrips() []roundTrip {
	const never = 1 << 30 // an epoch that no read ends
	value := []byte("a 32-byte value, as in the paper")
	read := func(f *Feed, keys []string, i int) error { return f.Read(keys[i*7919%len(keys)]) }
	absent := make([]string, roundTripRecords)
	for i := range absent {
		absent[i] = fmt.Sprintf("key-%05d-absent", i)
	}
	return []roundTrip{
		{
			// The read, deliver and callback run on recycled transactions,
			// arguments and proof buffer, and the digest is loaded onto the
			// stack. What still allocates: the request event's share of its
			// chunk, 1/64, and the growth of the DU's value map.
			name: "nr_read", ceiling: 0.1, opsPerRun: 1, run: read,
			policy: policy.Never{}, epochOps: never,
		},
		{
			// An absent key's deliverAbsent runs on the same recycled
			// storage. What still allocates: the absence proof, its struct
			// and its preorder buffer, and the request event's share of its
			// chunk.
			name: "nr_read_absent", ceiling: 2.1, opsPerRun: 1, pooled: true,
			policy: policy.Never{}, epochOps: never,
			run: func(f *Feed, _ []string, i int) error { return f.Read(absent[i*7919%len(absent)]) },
		},
		{
			// Served from contract storage. What still allocates: the value
			// Load copies, which the callback keeps.
			name: "r_read", ceiling: 1, opsPerRun: 1, run: read,
			policy: policy.Always{}, epochOps: never,
		},
		{
			// The update transaction and its arguments are recycled. What
			// still allocates: the eight value copies, one per write.
			name: "write_epoch", ceiling: 1, opsPerRun: 8,
			policy: policy.Never{}, epochOps: 8,
			run: func(f *Feed, keys []string, i int) error {
				for j := 0; j < 8; j++ {
					f.Write(KV{Key: keys[(i*8+j)*7919%len(keys)], Value: value})
				}
				return nil
			},
		},
	}
}

// TestRoundTripAllocations pins what one protocol round trip allocates on a
// 10k-record feed, new or restored from a snapshot: the values and proofs it
// hands out, and nothing per op beyond them.
func TestRoundTripAllocations(t *testing.T) {
	keys := roundTripKeys()
	for _, rt := range roundTrips() {
		for _, restored := range []bool{false, true} {
			name := rt.name
			if restored {
				name += "/restored"
			}
			t.Run(name, func(t *testing.T) {
				if rt.pooled && raceEnabled {
					t.Skip("a pooled allocation count does not hold under the race detector")
				}
				f := rt.feed(t, keys, restored)
				i, failed := 0, error(nil)
				// AllocsPerRun reports whole allocations per run, so a
				// run is 64 ops: a ceiling below one per op is checked.
				const batch = 64
				allocs := testing.AllocsPerRun(20, func() {
					for j := 0; j < batch; j++ {
						if err := rt.run(f, keys, i); err != nil && failed == nil {
							failed = err
						}
						i++
					}
				})
				if failed != nil {
					t.Fatal(failed)
				}
				perOp := allocs / float64(batch*rt.opsPerRun)
				t.Logf("%.3f allocations per op", perOp)
				if perOp > rt.ceiling {
					t.Errorf("%.3f allocations per op, ceiling %v", perOp, rt.ceiling)
				}
			})
		}
	}
}

// BenchmarkFeedRoundTrip times the round trips TestRoundTripAllocations pins.
func BenchmarkFeedRoundTrip(b *testing.B) {
	for _, rt := range roundTrips() {
		b.Run(rt.name, func(b *testing.B) {
			keys := roundTripKeys()
			f := rt.feed(b, keys, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.run(f, keys, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
