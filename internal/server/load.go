package server

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"grub/internal/workload/ycsb"
)

// StartLocal brings up a gateway HTTP server on a loopback ephemeral port.
// It returns the base URL and a shutdown func. The load driver uses it to
// run standalone.
func StartLocal() (url string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	g := NewGateway()
	srv := &http.Server{Handler: NewHandler(g)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		g.Close()
	}, nil
}

// LoadSpec parameterizes one load run against a gateway: Feeds feeds named
// Prefix0..PrefixN-1, each preloaded with Records YCSB keys, then hammered
// by Clients concurrent clients (client i drives feed i%Feeds) issuing
// Batches batches of BatchOps ops each from the given YCSB workload.
type LoadSpec struct {
	Prefix  string // feed ID prefix; default "load"
	Feeds   int
	Clients int
	Batches int
	// BatchOps is logical YCSB ops per batch (an RMW yields two trace ops).
	BatchOps int
	Records  int
	Workload ycsb.Spec
	Policy   string
	K        int
	// Shards hash-partitions each feed's keyspace across this many shards
	// (0 or 1 = unsharded).
	Shards   int
	EpochOps int
	Seed     uint64
}

func (s LoadSpec) withDefaults() LoadSpec {
	if s.Prefix == "" {
		s.Prefix = "load"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

func (s LoadSpec) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Feeds", s.Feeds}, {"Clients", s.Clients}, {"Batches", s.Batches},
		{"BatchOps", s.BatchOps}, {"Records", s.Records},
	} {
		if f.v < 1 {
			return fmt.Errorf("server: %w: load spec %s = %d, must be >= 1", ErrBadConfig, f.name, f.v)
		}
	}
	return nil
}

// LoadResult reports one load run. Stats holds one entry per feed, fetched
// after the run completed (and before the driver removed its feeds).
// BatchLatencies holds every load-phase batch's client-observed round-trip
// time (preload excluded), sorted ascending.
type LoadResult struct {
	PreloadOps     int
	LoadOps        int
	Elapsed        time.Duration
	Stats          []Stats
	BatchLatencies []time.Duration
}

// OpsPerSec is the load-phase throughput (preload excluded).
func (r LoadResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.LoadOps) / r.Elapsed.Seconds()
}

// LatencyQuantile returns the q-quantile (0 <= q <= 1) of the per-batch
// client-observed latencies by linear interpolation over the sorted samples.
// Zero when no batches were recorded.
func (r LoadResult) LatencyQuantile(q float64) time.Duration {
	n := len(r.BatchLatencies)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return r.BatchLatencies[0]
	}
	if q >= 1 {
		return r.BatchLatencies[n-1]
	}
	rank := q * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return r.BatchLatencies[n-1]
	}
	a, b := float64(r.BatchLatencies[lo]), float64(r.BatchLatencies[lo+1])
	return time.Duration(a + (b-a)*frac)
}

// AvgGasPerOp aggregates feed-layer Gas per op over every executed op,
// preload included.
func (r LoadResult) AvgGasPerOp() float64 {
	var gasTotal float64
	var ops int
	for _, st := range r.Stats {
		gasTotal += st.GasPerOp * float64(st.Ops)
		ops += st.Ops
	}
	if ops == 0 {
		return 0
	}
	return gasTotal / float64(ops)
}

// RunLoad executes a load run against the gateway behind c. It creates its
// feeds, drives them, snapshots their stats and removes them again, so
// repeated runs against a long-lived gateway neither collide nor accumulate
// workers.
func RunLoad(c *Client, spec LoadSpec) (LoadResult, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return LoadResult{}, err
	}
	feedID := func(i int) string { return fmt.Sprintf("%s%d", spec.Prefix, i) }
	cleanup := func(n int) {
		for i := 0; i < n; i++ {
			c.CloseFeed(feedID(i))
		}
	}
	preload := FromWorkload(ycsb.NewDriver(spec.Workload, spec.Records, 32, spec.Seed).Preload())
	for i := 0; i < spec.Feeds; i++ {
		err := c.CreateFeed(FeedConfig{
			ID: feedID(i), Policy: spec.Policy, K: spec.K, Shards: spec.Shards,
			EpochOps: spec.EpochOps,
		})
		if err != nil {
			cleanup(i)
			return LoadResult{}, err
		}
		if _, err := c.Do(feedID(i), preload); err != nil {
			cleanup(i + 1)
			return LoadResult{}, err
		}
	}
	defer cleanup(spec.Feeds)

	var wg sync.WaitGroup
	errs := make(chan error, spec.Clients)
	// Each client records its own batch round-trip times; the slices merge
	// after wg.Wait so the hot path takes no shared lock.
	perClient := make([][]time.Duration, spec.Clients)
	start := time.Now()
	for ci := 0; ci < spec.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := NewClient(c.BaseURL)
			id := feedID(ci % spec.Feeds)
			d := ycsb.NewDriver(spec.Workload, spec.Records, 32, spec.Seed+uint64(ci+1)*7919)
			lats := make([]time.Duration, 0, spec.Batches)
			for b := 0; b < spec.Batches; b++ {
				t0 := time.Now()
				if _, err := cl.Do(id, FromWorkload(d.Generate(spec.BatchOps))); err != nil {
					errs <- err
					return
				}
				lats = append(lats, time.Since(t0))
			}
			perClient[ci] = lats
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return LoadResult{}, err
	}
	elapsed := time.Since(start)

	res := LoadResult{PreloadOps: len(preload) * spec.Feeds, Elapsed: elapsed}
	for _, lats := range perClient {
		res.BatchLatencies = append(res.BatchLatencies, lats...)
	}
	sort.Slice(res.BatchLatencies, func(i, j int) bool {
		return res.BatchLatencies[i] < res.BatchLatencies[j]
	})
	for i := 0; i < spec.Feeds; i++ {
		st, err := c.Stats(feedID(i))
		if err != nil {
			return LoadResult{}, err
		}
		res.LoadOps += st.Ops - len(preload)
		res.Stats = append(res.Stats, st)
	}
	return res, nil
}
