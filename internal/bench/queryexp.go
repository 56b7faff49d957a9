package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/query"
	"grub/internal/shard"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// RunQuery measures the authenticated read path against the worker read
// path on the same sharded feed, under a sustained concurrent write load in
// both phases. Worker-path reads serialize through the per-shard
// single-writer workers and pay the full simulated read protocol (request
// event, deliver transaction, verification) per op; query-path reads are
// served from the immutable per-shard views with a fresh Merkle proof
// assembled — and client-side verified — per op, never touching the
// workers. A view's record set is sealed (every node hashed) by the worker
// before it is published, so a reader's proof is assembled from cached
// hashes and hashes nothing but its own verification. It reports ops/sec
// for both paths, the resulting speedup, and the proof bytes each verified
// read carried; a verified read that fails verification fails the run.
func RunQuery(cfg Config) error {
	cfg = cfg.withDefaults()
	const shards = 4
	const batchOps = 16
	records := cfg.scaled(256, 32)
	readers := cfg.scaled(16, 4)
	batches := cfg.scaled(16, 2)
	readsPer := batches * batchOps

	build := func(int) (*core.Feed, error) {
		c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
		return core.NewFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: 8}), nil
	}
	sf, err := shard.New(shard.Options{Shards: shards, Views: true}, build)
	if err != nil {
		return err
	}
	defer sf.Close()

	preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadB, records, 32, cfg.Seed).Preload())
	if _, err := sf.Do(preload); err != nil {
		return err
	}
	keys := make([]string, 0, len(preload))
	for _, op := range preload {
		keys = append(keys, op.Key)
	}

	// Sustained write load for the duration of one read phase: the views
	// keep republishing underneath the readers, which is exactly the
	// snapshot-isolation regime the engine exists for.
	startWrites := func() (stop func() error) {
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			r := sim.NewRand(cfg.Seed + 99)
			for {
				select {
				case <-done:
					return
				default:
				}
				ops := make([]core.Op, batchOps)
				for i := range ops {
					ops[i] = core.Op{Type: "write", Key: keys[r.Intn(len(keys))], Value: []byte("rewritten")}
				}
				if _, err := sf.Do(ops); err != nil {
					errc <- err
					return
				}
			}
		}()
		return func() error {
			close(done)
			return <-errc
		}
	}

	fmt.Fprintf(cfg.W, "query: verified-read vs worker-path read, %d readers x %d reads (%d records, %d shards, writes sustained)\n\n",
		readers, readsPer, records, shards)
	fmt.Fprintf(cfg.W, "%-16s %10s %12s %12s %14s\n", "path", "ops", "elapsed", "ops/sec", "proof B/op")

	// Phase 1: worker-path reads (batched through Do, like any client).
	stop := startWrites()
	var wg sync.WaitGroup
	werrc := make(chan error, readers)
	start := time.Now()
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			r := sim.NewRand(cfg.Seed + uint64(ri+1)*7919)
			for b := 0; b < batches; b++ {
				ops := make([]core.Op, batchOps)
				for i := range ops {
					ops[i] = core.Op{Type: "read", Key: keys[r.Intn(len(keys))]}
				}
				if _, err := sf.Do(ops); err != nil {
					werrc <- err
					return
				}
			}
		}(ri)
	}
	wg.Wait()
	close(werrc)
	workerElapsed := time.Since(start)
	if err := stop(); err != nil {
		return err
	}
	for err := range werrc {
		return err
	}
	workerOps := readers * readsPer
	workerRate := float64(workerOps) / workerElapsed.Seconds()
	fmt.Fprintf(cfg.W, "%-16s %10d %12v %12.0f %14s\n",
		"worker", workerOps, workerElapsed.Round(time.Millisecond), workerRate, "-")

	// Phase 2: verified reads off the published views (one in four reads
	// a missing key, exercising absence proofs).
	engine := sf.Engine()
	var proofBytes atomic.Int64
	stop = startWrites()
	verrc := make(chan error, readers)
	start = time.Now()
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			r := sim.NewRand(cfg.Seed + uint64(ri+1)*104729)
			for i := 0; i < readsPer; i++ {
				key := keys[r.Intn(len(keys))]
				if i%4 == 3 {
					key = fmt.Sprintf("ghost-%d", r.Intn(1<<16))
				}
				res, err := engine.Get(key)
				if err != nil {
					verrc <- err
					return
				}
				if err := query.VerifyGet(key, res); err != nil {
					verrc <- fmt.Errorf("verified read rejected: %w", err)
					return
				}
				proofBytes.Add(int64(res.ProofBytes()))
			}
		}(ri)
	}
	wg.Wait()
	close(verrc)
	verifiedElapsed := time.Since(start)
	if err := stop(); err != nil {
		return err
	}
	for err := range verrc {
		return err
	}
	verifiedOps := readers * readsPer
	verifiedRate := float64(verifiedOps) / verifiedElapsed.Seconds()
	bytesPerOp := float64(proofBytes.Load()) / float64(verifiedOps)
	fmt.Fprintf(cfg.W, "%-16s %10d %12v %12.0f %14.0f\n",
		"verified", verifiedOps, verifiedElapsed.Round(time.Millisecond), verifiedRate, bytesPerOp)

	speedup := 0.0
	if workerRate > 0 {
		speedup = verifiedRate / workerRate
	}
	fmt.Fprintf(cfg.W, "\nverified reads run %.1fx the worker path (proofs assembled off immutable views; workers untouched)\n", speedup)
	cfg.metric("worker.opsPerSec", workerRate)
	cfg.metric("verified.opsPerSec", verifiedRate)
	cfg.metric("verified.speedup", speedup)
	cfg.metric("verified.proofBytesPerOp", bytesPerOp)
	return nil
}
