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
	feed    func() *Feed
	// opsPerRun is how many ops one call of run executes.
	opsPerRun int
	run       func(f *Feed, keys []string, i int) error
}

// roundTripKeys names the preloaded records.
func roundTripKeys() []string {
	keys := make([]string, roundTripRecords)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}

// preloadedFeed is a feed holding every key (32-byte values) in one flushed
// epoch. Reads run with an epoch that never ends, so a read's count is the
// read alone.
func preloadedFeed(p policy.Policy, epochOps int, keys []string) *Feed {
	f := newTestFeed(p, Options{EpochOps: epochOps})
	for _, k := range keys {
		f.DO.StageWrite(KV{Key: k, Value: make([]byte, 32)})
	}
	f.FlushEpoch()
	return f
}

func roundTrips() []roundTrip {
	const never = 1 << 30 // an epoch that no read ends
	value := []byte("a 32-byte value, as in the paper")
	read := func(f *Feed, keys []string, i int) error { return f.Read(keys[i*7919%len(keys)]) }
	return []roundTrip{
		{
			// The read transaction and its key, the gGet arguments, the
			// request event, the proof and its path, the deliver transaction
			// and its arguments, the digest Load copies, the callback
			// arguments and deliver's boxed return value: 11 (30 when every
			// transaction rebuilt its contexts and buffers).
			name: "nr_read", ceiling: 11, opsPerRun: 1, run: read,
			feed: func() *Feed { return preloadedFeed(policy.Never{}, never, roundTripKeys()) },
		},
		{
			// Served from contract storage: the read transaction and its
			// key, the gGet arguments, the value Load copies, the callback
			// arguments and gGet's boxed return value: 6 (was 17).
			name: "r_read", ceiling: 6, opsPerRun: 1, run: read,
			feed: func() *Feed { return preloadedFeed(policy.Always{}, never, roundTripKeys()) },
		},
		{
			// Eight value copies, then the update transaction and its
			// arguments: 10 per epoch (was 123, mostly root-path copies of
			// nodes no view shared).
			name: "write_epoch", ceiling: 1.25, opsPerRun: 8,
			run: func(f *Feed, keys []string, i int) error {
				for j := 0; j < 8; j++ {
					f.Write(KV{Key: keys[(i*8+j)*7919%len(keys)], Value: value})
				}
				return nil
			},
			feed: func() *Feed { return preloadedFeed(policy.Never{}, 8, roundTripKeys()) },
		},
	}
}

// TestRoundTripAllocations pins what one protocol round trip allocates on a
// 10k-record feed: the value copies, proofs and transactions it hands out,
// and nothing per op beyond them.
func TestRoundTripAllocations(t *testing.T) {
	for _, rt := range roundTrips() {
		t.Run(rt.name, func(t *testing.T) {
			f, keys := rt.feed(), roundTripKeys()
			i, failed := 0, error(nil)
			allocs := testing.AllocsPerRun(200, func() {
				if err := rt.run(f, keys, i); err != nil && failed == nil {
					failed = err
				}
				i++
			})
			if failed != nil {
				t.Fatal(failed)
			}
			if perOp := allocs / float64(rt.opsPerRun); perOp > rt.ceiling {
				t.Errorf("%.2f allocations per op, ceiling %v", perOp, rt.ceiling)
			}
		})
	}
}

// BenchmarkFeedRoundTrip times the round trips TestRoundTripAllocations pins.
func BenchmarkFeedRoundTrip(b *testing.B) {
	for _, rt := range roundTrips() {
		b.Run(rt.name, func(b *testing.B) {
			f, keys := rt.feed(), roundTripKeys()
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
