package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// newTestFeed builds one shard's feed the way the gateway does: memoryless
// K=2 on a fresh simulated chain.
func newTestFeed(epochOps int) (*core.Feed, error) {
	c := chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
	return core.NewFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: epochOps}), nil
}

func newSharded(t *testing.T, n, epochOps int, record bool) *ShardedFeed {
	t.Helper()
	sf, err := New(Options{Shards: n, RecordTrace: record},
		func(int) (*core.Feed, error) { return newTestFeed(epochOps) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	return sf
}

func TestShardOf(t *testing.T) {
	if got := ShardOf("anything", 1); got != 0 {
		t.Errorf("ShardOf(_, 1) = %d, want 0", got)
	}
	if got := ShardOf("anything", 0); got != 0 {
		t.Errorf("ShardOf(_, 0) = %d, want 0", got)
	}
	// Deterministic and in range; over many keys every shard gets some.
	for _, n := range []int{2, 4, 8} {
		seen := make(map[int]int)
		for i := 0; i < 256; i++ {
			k := fmt.Sprintf("key%d", i)
			sh := ShardOf(k, n)
			if sh < 0 || sh >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", k, n, sh)
			}
			if sh != ShardOf(k, n) {
				t.Fatalf("ShardOf(%q, %d) not deterministic", k, n)
			}
			seen[sh]++
		}
		if len(seen) != n {
			t.Errorf("n=%d: only %d shards hit over 256 keys: %v", n, len(seen), seen)
		}
	}
}

// TestSingleShardMatchesPlainFeed pins the degenerate case: a 1-shard
// ShardedFeed is byte-for-byte the single worker feed.
func TestSingleShardMatchesPlainFeed(t *testing.T) {
	sf := newSharded(t, 1, 4, true)
	ops := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadA, 16, 32, 3).Generate(40))
	got, err := sf.Do(ops)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := newTestFeed(4)
	want := core.ApplyOps(ref, ops)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Found != want[i].Found ||
			!bytes.Equal(got[i].Value, want[i].Value) || got[i].Err != want[i].Err {
			t.Errorf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st, err := sf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.Ops != len(ops) || st.Batches != 1 {
		t.Errorf("stats shards/ops/batches = %d/%d/%d, want 1/%d/1", st.Shards, st.Ops, st.Batches, len(ops))
	}
	if st.Feed != ref.Stats() {
		t.Errorf("aggregate stats diverge from plain feed:\n got %+v\nwant %+v", st.Feed, ref.Stats())
	}
	trace, _, err := sf.TraceResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != len(ops) {
		t.Errorf("trace has %d ops, want %d", len(trace), len(ops))
	}
}

// TestScatterGatherOrder checks that a mixed batch comes back in the
// caller's order with per-key read-your-write visibility across an epoch
// boundary, regardless of which shard served each op.
func TestScatterGatherOrder(t *testing.T) {
	sf := newSharded(t, 4, 1, false) // EpochOps=1: every write flushes
	var ops []core.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, core.Op{Type: "write", Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}})
	}
	for i := 0; i < 16; i++ {
		ops = append(ops, core.Op{Type: "read", Key: fmt.Sprintf("k%d", i)})
	}
	// A batch is atomic per shard: each shard executes its writes before
	// its reads, so every read must deliver its key's value.
	results, err := sf.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(results), len(ops))
	}
	for i := 0; i < 16; i++ {
		r := results[16+i]
		if r.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("result %d routed to wrong slot: %+v", 16+i, r)
		}
		if !r.Found || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Errorf("read k%d = (%v, %v), want (true, [%d])", i, r.Found, r.Value, i)
		}
	}
}

// TestStatsAggregation checks the aggregate is the field-wise sum of the
// per-shard snapshots and gas/op nets out each shard's genesis.
func TestStatsAggregation(t *testing.T) {
	sf := newSharded(t, 4, 4, false)
	ops := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, 32, 32, 9).Generate(64))
	if _, err := sf.Do(ops); err != nil {
		t.Fatal(err)
	}
	st, err := sf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("shards = %d (%d entries), want 4", st.Shards, len(st.PerShard))
	}
	var sum core.FeedStats
	sumOps := 0
	var sumBase gas.Gas
	for i, p := range st.PerShard {
		if p.Shard != i {
			t.Errorf("per-shard entry %d has index %d", i, p.Shard)
		}
		sum = addFeedStats(sum, p.Feed)
		sumOps += p.Ops
		sumBase += p.BaseGas
	}
	if st.Feed != sum {
		t.Errorf("aggregate != sum of shards:\n got %+v\nwant %+v", st.Feed, sum)
	}
	if st.Ops != sumOps || st.Ops != len(ops) {
		t.Errorf("ops = %d (shard sum %d), want %d", st.Ops, sumOps, len(ops))
	}
	if want := float64(sum.FeedGas-sumBase) / float64(sumOps); st.GasPerOp != want {
		t.Errorf("gas/op = %v, want %v", st.GasPerOp, want)
	}
}

func TestClosed(t *testing.T) {
	sf, err := New(Options{Shards: 2}, func(int) (*core.Feed, error) { return newTestFeed(4) })
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
	sf.Close() // idempotent
	if _, err := sf.Do([]core.Op{{Type: "read", Key: "k"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	if _, err := sf.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stats after Close = %v, want ErrClosed", err)
	}
	if _, _, err := sf.TraceResults(); !errors.Is(err, ErrClosed) {
		t.Errorf("Trace after Close = %v, want ErrClosed", err)
	}
}

func TestBuildError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := New(Options{Shards: 4}, func(i int) (*core.Feed, error) {
		if i == 2 {
			return nil, boom
		}
		return newTestFeed(4)
	}); !errors.Is(err, boom) {
		t.Fatalf("New with failing builder = %v, want boom", err)
	}
}

// TestShardedEquivalence is the headline correctness result: a sharded feed
// hammered by 32 concurrent clients must match, exactly, N independent
// single feeds each replaying its shard's serialized sub-trace — per-key
// results, delivered counts and total gas. Run under -race this doubles as
// the data-race check on the scatter-gather engine.
func TestShardedEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				clients        = 32
				batchesPerClnt = 4
				opsPerBatch    = 8
				records        = 24
				epochOps       = 8
			)
			sf := newSharded(t, shards, epochOps, true)

			// Preload the shared YCSB key space, then hammer concurrently.
			preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadA, records, 32, 1).Preload())
			if _, err := sf.Do(preload); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					d := ycsb.NewDriver(ycsb.WorkloadA, records, 32, uint64(1000+ci))
					for b := 0; b < batchesPerClnt; b++ {
						results, err := sf.Do(core.FromWorkload(d.Generate(opsPerBatch)))
						if err != nil {
							errs <- err
							return
						}
						for _, res := range results {
							if res.Err != "" {
								errs <- fmt.Errorf("op %q: %s", res.Key, res.Err)
								return
							}
						}
					}
				}(ci)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			merged, recorded, err := sf.TraceResults()
			if err != nil {
				t.Fatal(err)
			}
			traces := splitTrace(t, merged, shards)
			got, err := sf.Stats()
			if err != nil {
				t.Fatal(err)
			}
			wantOps := len(preload) + clients*batchesPerClnt*opsPerBatch
			if got.Ops != wantOps {
				t.Errorf("ops = %d, want %d", got.Ops, wantOps)
			}

			// Replay each shard's serialized order through an independent
			// single feed; results and stats must match exactly.
			var wantAgg core.FeedStats
			ri := 0 // cursor into the merged recorded results
			totalTrace := 0
			for sh, trace := range traces {
				totalTrace += len(trace)
				ref, err := newTestFeed(epochOps)
				if err != nil {
					t.Fatal(err)
				}
				replayed := core.ApplyOps(ref, trace)
				for j, res := range replayed {
					rec := recorded[ri]
					ri++
					if res.Key != rec.Key || res.Found != rec.Found ||
						!bytes.Equal(res.Value, rec.Value) || res.Err != rec.Err {
						t.Errorf("shard %d op %d: replay %+v != recorded %+v", sh, j, res, rec)
					}
				}
				want := ref.Stats()
				if got.PerShard[sh].Feed != want {
					t.Errorf("shard %d stats diverge from replay:\n got %+v\nwant %+v", sh, got.PerShard[sh].Feed, want)
				}
				wantAgg = addFeedStats(wantAgg, want)
			}
			if totalTrace != wantOps {
				t.Errorf("shard traces hold %d ops, want %d", totalTrace, wantOps)
			}
			if got.Feed != wantAgg {
				t.Errorf("aggregate stats diverge from summed replays:\n got %+v\nwant %+v", got.Feed, wantAgg)
			}
			if got.Feed.Delivered == 0 {
				t.Error("no reads delivered — workload did not exercise the feed")
			}
		})
	}
}

// BenchmarkShardedFeed measures scatter-gather throughput at several shard
// counts (read-heavy YCSB-B batches from parallel clients).
func BenchmarkShardedFeed(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sf, err := New(Options{Shards: shards}, func(int) (*core.Feed, error) { return newTestFeed(8) })
			if err != nil {
				b.Fatal(err)
			}
			defer sf.Close()
			const records = 64
			if _, err := sf.Do(core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, records, 32, 1).Preload())); err != nil {
				b.Fatal(err)
			}
			var mu sync.Mutex
			next := 0
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				ci := next
				next++
				mu.Unlock()
				d := ycsb.NewDriver(ycsb.WorkloadB, records, 32, uint64(100+ci))
				for pb.Next() {
					if _, err := sf.Do(core.FromWorkload(d.Generate(16))); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// splitTrace splits TraceResults' merged trace back into each shard's
// serialized order with ShardOf. The merged trace is shard 0's sub-trace,
// then shard 1's, and so on, so the owning shard never decreases along it; a
// key out of place means a worker executed an op another shard owns.
func splitTrace(t *testing.T, merged []core.Op, shards int) [][]core.Op {
	t.Helper()
	out := make([][]core.Op, shards)
	last := 0
	for i, op := range merged {
		sh := ShardOf(op.Key, shards)
		if sh < last {
			t.Fatalf("merged trace op %d: key %q of shard %d follows shard %d's sub-trace", i, op.Key, sh, last)
		}
		last = sh
		out[sh] = append(out[sh], op)
	}
	return out
}

// TestScatterAllocs pins what an 8-op batch costs on a 4-shard in-memory
// feed, scatter, shard work and gather together. The batch reaches all four
// shards. The scatter makes one arena and one exact-size sub-batch per
// shard, each shard one result slice, the gather one merged slice, and every
// sub-batch answers on one pooled reply channel: 10 allocations. The other 8
// are the shards' own work. The batch reads and rewrites the same keys every
// run, so that work is the same each time.
func TestScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const bound = 18
	sf := newSharded(t, 4, 8, false)
	batch := make([]core.Op, 8)
	hit := make(map[int]bool)
	for i := range batch {
		key := fmt.Sprintf("k%d", i)
		hit[ShardOf(key, 4)] = true
		batch[i] = core.Op{Type: "read", Key: key}
		if i%2 == 1 {
			batch[i] = core.Op{Type: "write", Key: key, Value: []byte("v")}
		}
	}
	for range 20 { // reach the steady state: every key written and read
		if _, err := sf.Do(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sf.Do(batch); err != nil {
			t.Fatal(err)
		}
	})
	if len(hit) != 4 {
		t.Fatalf("the batch reaches %d shards, want 4", len(hit))
	}
	t.Logf("%.1f allocations per 8-op batch", allocs)
	if allocs > bound {
		t.Errorf("%.1f allocations per 8-op batch, want at most %d", allocs, bound)
	}
}
