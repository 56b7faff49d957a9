// Command grubfeed runs an end-to-end GRuB feed demo on the simulated
// chain: it feeds a drifting price stream, issues reads with a shifting
// read/write mix, and reports the replication decisions and Gas as they
// happen.
//
// With -load it instead becomes a gateway load driver: it replays YCSB
// workloads against a grubd gateway over HTTP from many concurrent clients
// and reports ops/sec and per-feed gas/op. Pointed at nothing (-gateway ""),
// it starts an in-process gateway first, so `grubfeed -load` works
// standalone.
//
// With -verify it drives the authenticated read path instead: concurrent
// VerifyingClient light clients issue point reads, absence queries and
// range scans against a feed and re-verify every Merkle proof against the
// gateway's advertised roots, reporting verified ops/sec and proof bytes
// per op. A single rejected proof fails the run — the gateway is untrusted
// on this path. With -replicas the verified readers spread round-robin
// across follower gateways (grubd -follow) instead of the leader, after
// waiting for each replica to catch up — the replicated read scale-out
// path; writes still go to -gateway.
//
// Usage:
//
//	grubfeed [-ops 256] [-policy memoryless|memorizing|bl1|bl2] [-k 2]
//	grubfeed -load [-gateway http://host:8080] [-feeds 8] [-clients 32]
//	         [-batches 8] [-batch 16] [-workload A] [-records 64] [-shards 4]
//	grubfeed -verify [-gateway http://host:8080] [-clients 32] [-reads 64]
//	         [-records 64] [-shards 4]
//	         [-replicas http://f1:8081,http://f2:8082]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/server"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grubfeed:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("grubfeed", flag.ContinueOnError)
	ops := fs.Int("ops", 256, "operations to drive (demo mode)")
	polName := fs.String("policy", "memoryless", "replication policy: memoryless|memorizing|bl1|bl2")
	k := fs.Int("k", 2, "policy parameter K")
	epoch := fs.Int("epoch", 16, "operations per epoch")
	load := fs.Bool("load", false, "replay YCSB against a gateway instead of the demo")
	verify := fs.Bool("verify", false, "drive verified reads through the authenticated read path instead of the demo")
	gateway := fs.String("gateway", "", "gateway URL for -load/-verify; empty starts an in-process gateway")
	feeds := fs.Int("feeds", 8, "feeds to create (-load)")
	clients := fs.Int("clients", 32, "concurrent clients (-load/-verify)")
	batches := fs.Int("batches", 8, "batches per client (-load)")
	batch := fs.Int("batch", 16, "ops per batch (-load)")
	workloadName := fs.String("workload", "A", "YCSB workload letter (-load)")
	records := fs.Int("records", 64, "preloaded records per feed (-load/-verify)")
	shards := fs.Int("shards", 1, "shards per feed: hash-partition each feed's keyspace (-load/-verify)")
	reads := fs.Int("reads", 64, "verified reads per client (-verify)")
	replicas := fs.String("replicas", "", "comma-separated follower URLs to spread verified readers across (-verify)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *load:
		return runLoad(w, loadConfig{
			gateway: *gateway, feeds: *feeds, clients: *clients,
			batches: *batches, batch: *batch, workload: *workloadName,
			records: *records, policy: *polName, k: *k, epoch: *epoch,
			shards: *shards,
		})
	case *verify:
		var replicaURLs []string
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicaURLs = append(replicaURLs, u)
			}
		}
		return runVerify(w, verifyConfig{
			gateway: *gateway, clients: *clients, reads: *reads,
			records: *records, shards: *shards, policy: *polName,
			k: *k, epoch: *epoch, replicas: replicaURLs,
		})
	}
	return runDemo(w, *ops, *polName, *k, *epoch)
}

func runDemo(w io.Writer, ops int, polName string, k, epoch int) error {
	var pol policy.Policy
	switch polName {
	case "memoryless":
		pol = policy.NewMemoryless(k)
	case "memorizing":
		pol = policy.NewMemorizing(k, 1)
	case "bl1":
		pol = policy.Never{}
	case "bl2":
		pol = policy.Always{}
	default:
		return fmt.Errorf("unknown policy %q", polName)
	}

	c := chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
	f := core.NewFeed(c, pol, core.Options{EpochOps: epoch})
	fmt.Fprintf(w, "GRuB feed demo: policy=%s epoch=%d ops=%d\n\n", pol.Name(), epoch, ops)

	r := sim.NewRand(1)
	price := uint64(200_00)
	lastGas := f.FeedGas()
	for i := 0; i < ops; i++ {
		// Phase-shifted mix: write-heavy first half, read-heavy second.
		readChance := 0.2
		if i > ops/2 {
			readChance = 0.9
		}
		if r.Float64() < readChance {
			if err := f.Read("ETH-USD"); err != nil {
				return err
			}
		} else {
			price += uint64(r.Intn(200))
			buf := []byte(fmt.Sprintf("%08d", price))
			f.Write(core.KV{Key: "ETH-USD", Value: buf})
		}
		if (i+1)%epoch == 0 {
			rec, _ := f.DO.Set().Get("ETH-USD")
			g := f.FeedGas()
			fmt.Fprintf(w, "epoch %3d | state=%-2s | gas/op %7.0f | height %d\n",
				(i+1)/epoch, rec.State, float64(g-lastGas)/float64(epoch), c.Height())
			lastGas = g
		}
	}
	fmt.Fprintf(w, "\nresults: delivered=%d notFound=%d feedGas=%d totalGas=%d\n",
		f.Delivered(), f.NotFound(), f.FeedGas(), c.TotalGas())
	rec, ok := f.DO.Set().Get("ETH-USD")
	if ok {
		fmt.Fprintf(w, "final record state: %s (replicated on-chain: %v)\n", rec.State, rec.State == ads.R)
	}
	return nil
}

type loadConfig struct {
	gateway        string
	feeds, clients int
	batches, batch int
	workload       string
	records        int
	policy         string
	k, epoch       int
	shards         int
}

// runLoad replays YCSB batches against a gateway from N concurrent clients
// (the fan-out itself lives in server.RunLoad).
func runLoad(w io.Writer, cfg loadConfig) error {
	spec, err := ycsb.SpecByName(cfg.workload)
	if err != nil {
		return err
	}
	url := cfg.gateway
	if url == "" {
		// Standalone mode: bring up an in-process gateway on loopback.
		var shutdown func()
		url, shutdown, err = server.StartLocal()
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(w, "started in-process gateway on %s\n", url)
	}
	fmt.Fprintf(w, "load: %d feeds x YCSB-%s (%d shards each), %d clients x %d batches x %d ops\n",
		cfg.feeds, spec.Name, max(cfg.shards, 1), cfg.clients, cfg.batches, cfg.batch)
	client := server.NewClient(url)
	info, err := client.Info()
	if err != nil {
		return fmt.Errorf("gateway info: %w", err)
	}
	res, err := server.RunLoad(client, server.LoadSpec{
		Prefix: "load", Feeds: cfg.feeds, Clients: cfg.clients,
		Batches: cfg.batches, BatchOps: cfg.batch, Records: cfg.records,
		Workload: spec, Policy: cfg.policy, K: cfg.k, Shards: cfg.shards,
		EpochOps: cfg.epoch,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-8s %10s %10s %12s %10s\n", "feed", "ops", "batches", "gas/op", "replicas")
	for _, st := range res.Stats {
		fmt.Fprintf(w, "%-8s %10d %10d %12.0f %10d\n",
			st.ID, st.Ops, st.Batches, st.GasPerOp, st.Feed.Replicated)
	}
	fmt.Fprintf(w, "\nload results: %d ops in %v -> %.0f ops/sec, avg gas/op %.0f\n",
		res.LoadOps, res.Elapsed.Round(time.Millisecond), res.OpsPerSec(), res.AvgGasPerOp())
	fmt.Fprintf(w, "batch latency: p50 %v, p95 %v, p99 %v\n",
		res.LatencyQuantile(0.50).Round(time.Microsecond),
		res.LatencyQuantile(0.95).Round(time.Microsecond),
		res.LatencyQuantile(0.99).Round(time.Microsecond))
	if info.Persistent {
		snapshots, logged := 0, 0
		for _, st := range res.Stats {
			if st.Persist != nil {
				snapshots += st.Persist.Snapshots
				logged += st.Persist.LoggedBatches
			}
		}
		fmt.Fprintf(w, "persistence: data-dir %s, %d snapshots taken, %d batches in the durable log\n",
			info.DataDir, snapshots, logged)
	}
	return nil
}

type verifyConfig struct {
	gateway  string
	clients  int
	reads    int
	records  int
	shards   int
	policy   string
	k, epoch int
	// replicas spreads the verified readers round-robin across these
	// follower URLs (writes still go to the gateway). Empty = read from
	// the gateway itself.
	replicas []string
}

// replicaCatchUpTimeout bounds how long -verify waits for each replica to
// replicate the freshly preloaded feed before reading from it.
const replicaCatchUpTimeout = 30 * time.Second

// waitReplicas blocks until every replica's per-shard publication sequence
// has reached the leader's, i.e. the preloaded state is fully replicated.
func waitReplicas(w io.Writer, leader *server.Client, replicas []string, feedID string) error {
	want, err := leader.Roots(feedID)
	if err != nil {
		return fmt.Errorf("leader roots: %w", err)
	}
	deadline := time.Now().Add(replicaCatchUpTimeout)
	for _, url := range replicas {
		rc := server.NewClient(url)
		for {
			roots, err := rc.Roots(feedID)
			if err == nil && len(roots) == len(want) {
				behind := false
				for i := range want {
					if roots[i].Seq < want[i].Seq {
						behind = true
						break
					}
				}
				if !behind {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s did not catch up on feed %q within %v (last err: %v)",
					url, feedID, replicaCatchUpTimeout, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintf(w, "replica %s caught up on %q\n", url, feedID)
	}
	return nil
}

// runVerify drives the authenticated read path: it preloads a feed, then
// fans verified point reads (one in four for a key that does not exist, so
// absence proofs are exercised) and one verified range scan per client,
// re-checking every Merkle proof against the gateway's advertised roots.
func runVerify(w io.Writer, cfg verifyConfig) error {
	if cfg.clients < 1 || cfg.reads < 1 || cfg.records < 2 {
		return fmt.Errorf("verify needs -clients >= 1, -reads >= 1, -records >= 2 (got %d/%d/%d)",
			cfg.clients, cfg.reads, cfg.records)
	}
	url := cfg.gateway
	if url == "" {
		var shutdown func()
		var err error
		url, shutdown, err = server.StartLocal()
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(w, "started in-process gateway on %s\n", url)
	}
	admin := server.NewClient(url)
	const feedID = "verified"
	if err := admin.CreateFeed(server.FeedConfig{
		ID: feedID, Policy: cfg.policy, K: cfg.k,
		Shards: cfg.shards, EpochOps: cfg.epoch,
	}); err != nil {
		return err
	}
	keys := make([]string, cfg.records)
	var preload []server.Op
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d", i)
		preload = append(preload, server.Op{Type: "write", Key: keys[i], Value: []byte(fmt.Sprintf("value-%d", i))})
	}
	if _, err := admin.Do(feedID, preload); err != nil {
		return err
	}

	readFrom := []string{url}
	if len(cfg.replicas) > 0 {
		if err := waitReplicas(w, admin, cfg.replicas, feedID); err != nil {
			return err
		}
		readFrom = cfg.replicas
	}

	fmt.Fprintf(w, "verify: %d light clients x %d reads + 1 range over %d records (%d shards, %d read node(s))\n",
		cfg.clients, cfg.reads, cfg.records, max(cfg.shards, 1), len(readFrom))
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients)
	vcs := make([]*server.VerifyingClient, cfg.clients)
	start := time.Now()
	for ci := 0; ci < cfg.clients; ci++ {
		vcs[ci] = server.NewVerifyingClient(readFrom[ci%len(readFrom)])
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			vc := vcs[ci]
			r := sim.NewRand(uint64(ci + 1))
			for i := 0; i < cfg.reads; i++ {
				key := keys[r.Intn(len(keys))]
				if i%4 == 3 {
					key = fmt.Sprintf("ghost%04d", r.Intn(1<<16)) // absence proof
				}
				if _, err := vc.Get(feedID, key); err != nil {
					errc <- err
					return
				}
			}
			lo := keys[r.Intn(len(keys)/2)]
			if _, err := vc.Range(feedID, lo, lo+"~"); err != nil {
				errc <- err
			}
		}(ci)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return fmt.Errorf("verification failed (untrusted gateway?): %w", err)
	}
	elapsed := time.Since(start)

	var verified, proofBytes int64
	for _, vc := range vcs {
		v, pb := vc.VerifiedStats()
		verified += v
		proofBytes += pb
	}
	fmt.Fprintf(w, "\nverify results: %d proofs verified in %v -> %.0f verified ops/sec, %.0f proof bytes/op\n",
		verified, elapsed.Round(time.Millisecond), float64(verified)/elapsed.Seconds(),
		float64(proofBytes)/float64(max(int(verified), 1)))
	roots, err := admin.Roots(feedID)
	if err != nil {
		return err
	}
	for _, ri := range roots {
		fmt.Fprintf(w, "shard %d root %s (%d records, height %d, seq %d)\n",
			ri.Shard, ri.Root, ri.Count, ri.Height, ri.Seq)
	}
	return nil
}
