package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"grub/internal/cluster"
	"grub/internal/core"
	"grub/internal/repl"
	"grub/internal/shard"
	"grub/internal/stream"
	"grub/internal/workload/ycsb"
)

// TestHTTPEndpoints exercises every route and its error paths.
func TestHTTPEndpoints(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.CreateFeed(FeedConfig{ID: "f1", EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFeed(FeedConfig{ID: "f1"}); err == nil {
		t.Error("duplicate create succeeded over HTTP")
	}
	if err := c.CreateFeed(FeedConfig{ID: "f2", Policy: "bogus"}); err == nil {
		t.Error("bad policy accepted over HTTP")
	}
	ids, err := c.Feeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "f1" {
		t.Errorf("feeds = %v, want [f1]", ids)
	}

	results, err := c.Do("f1", []Op{
		{Type: "write", Key: "k", Value: []byte("hello")},
		{Type: "read", Key: "k"},
		{Type: "read", Key: "k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// EpochOps=4: the first read ticks the epoch over only after 4 ops, so
	// it is served off the previous (empty) digest — proven absence — and
	// the value becomes visible once the write's epoch flushes.
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if _, err := c.Do("ghost", nil); err == nil {
		t.Error("Do on unknown feed succeeded over HTTP")
	}

	st, err := c.Stats("f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 3 || st.Feed.FeedGas == 0 {
		t.Errorf("stats = %+v, want 3 ops and nonzero gas", st)
	}
	if _, err := c.Stats("ghost"); err == nil {
		t.Error("Stats on unknown feed succeeded over HTTP")
	}

	if err := c.CloseFeed("f1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFeed("f1"); err == nil {
		t.Error("double close succeeded over HTTP")
	}
}

// TestGatewayConcurrentEquivalence is the race-clean integration test: a
// gateway under httptest hosts 8 feeds driven by 32 concurrent HTTP clients
// issuing mixed read/write batches (YCSB A). Afterwards, each feed's
// recorded serialized op order is replayed through an identically-configured
// single-threaded core.Feed, and the per-feed stats — gas, gas/op, delivered
// and notFound counts, chain height, replication state — must match exactly.
// Run under -race this doubles as the data-race check on the whole stack.
func TestGatewayConcurrentEquivalence(t *testing.T) {
	const (
		feeds          = 8
		clients        = 32 // 4 per feed
		batchesPerClnt = 4
		opsPerBatch    = 8
		records        = 24
	)
	cfg := func(i int) FeedConfig {
		return FeedConfig{
			ID:          fmt.Sprintf("feed%d", i),
			Policy:      "memoryless",
			K:           2,
			EpochOps:    8,
			RecordTrace: true,
		}
	}

	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)

	// Create and preload every feed with the shared YCSB key space.
	preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadA, records, 32, 1).Preload())
	for i := 0; i < feeds; i++ {
		if err := c.CreateFeed(cfg(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Do(cfg(i).ID, preload); err != nil {
			t.Fatal(err)
		}
	}

	// 32 clients, each bound to one feed, each replaying its own
	// deterministic YCSB-A trace in batches. Batches from the 4 clients of
	// one feed interleave nondeterministically; the feed worker serializes
	// them into *some* total order and records it.
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := NewClient(srv.URL)
			id := cfg(ci % feeds).ID
			d := ycsb.NewDriver(ycsb.WorkloadA, records, 32, uint64(1000+ci))
			for b := 0; b < batchesPerClnt; b++ {
				batch := core.FromWorkload(d.Generate(opsPerBatch))
				results, err := cl.Do(id, batch)
				if err != nil {
					errs <- err
					return
				}
				for _, res := range results {
					if res.Err != "" {
						errs <- fmt.Errorf("op %q on %s: %s", res.Key, id, res.Err)
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

	// Equivalence: replay each feed's serialized order single-threaded and
	// compare the full stats snapshot.
	for i := 0; i < feeds; i++ {
		id := cfg(i).ID
		got, err := c.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		trace, _, err := c.TraceResults(id)
		if err != nil {
			t.Fatal(err)
		}
		wantOps := len(preload) + (clients/feeds)*batchesPerClnt*opsPerBatch
		if len(trace) != wantOps {
			t.Errorf("%s: trace has %d ops, want %d", id, len(trace), wantOps)
		}
		if got.Ops != wantOps {
			t.Errorf("%s: stats.Ops = %d, want %d", id, got.Ops, wantOps)
		}

		ref, err := NewFeed(cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		base := ref.FeedGas()
		core.ApplyOps(ref, trace)
		want := ref.Stats()
		if got.Feed != want {
			t.Errorf("%s: gateway stats diverge from single-threaded replay:\n got %+v\nwant %+v", id, got.Feed, want)
		}
		wantGasPerOp := float64(want.FeedGas-base) / float64(wantOps)
		if got.GasPerOp != wantGasPerOp {
			t.Errorf("%s: gas/op = %v, want %v", id, got.GasPerOp, wantGasPerOp)
		}
		if got.Feed.Delivered == 0 {
			t.Errorf("%s: no reads delivered — workload did not exercise the feed", id)
		}
	}
}

// TestHTTPBodyLimit checks the POST body cap: oversized batches get 413
// before any decoding work, and the boundary case still succeeds.
func TestHTTPBodyLimit(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandlerConfig(g, HandlerConfig{MaxBodyBytes: 4096}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if err := c.CreateFeed(FeedConfig{ID: "f"}); err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	big := `{"ops":[{"type":"write","key":"k","value":"` + strings.Repeat("QUFB", 4096) + `"}]}`
	if got := post("/feeds/f/ops", big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ops batch: status %d, want 413", got)
	}
	if got := post("/feeds", big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized feed config: status %d, want 413", got)
	}
	small := `{"ops":[{"type":"write","key":"k","value":"QUFB"}]}`
	if got := post("/feeds/f/ops", small); got != http.StatusOK {
		t.Errorf("small batch under the cap: status %d, want 200", got)
	}
	// The default cap applies when none is configured.
	srv2 := httptest.NewServer(NewHandler(g))
	defer srv2.Close()
	if err := NewClient(srv2.URL).CreateFeed(FeedConfig{ID: "f2"}); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPShardEndpoints exercises the sharded-feed surface over HTTP:
// creation with shards, per-shard stats and trace retrieval.
func TestHTTPShardEndpoints(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.CreateFeed(FeedConfig{ID: "s", Shards: 4, EpochOps: 2, RecordTrace: true}); err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Type: "write", Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}})
	}
	if _, err := c.Do("s", ops); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Ops != 16 || st.Batches != 1 {
		t.Errorf("stats shards/ops/batches = %d/%d/%d, want 4/16/1", st.Shards, st.Ops, st.Batches)
	}
	per, err := c.ShardStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(per))
	}
	sumOps, sumRecords := 0, 0
	for i, p := range per {
		if p.Shard != i {
			t.Errorf("shard stat %d has index %d", i, p.Shard)
		}
		sumOps += p.Ops
		sumRecords += p.Feed.Records
	}
	if sumOps != 16 || sumRecords != 16 {
		t.Errorf("shard sums ops/records = %d/%d, want 16/16", sumOps, sumRecords)
	}
	trOps, trResults, err := c.TraceResults("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(trOps) != 16 || len(trResults) != 16 {
		t.Errorf("trace ops/results = %d/%d, want 16/16", len(trOps), len(trResults))
	}
	if _, err := c.ShardStats("ghost"); err == nil {
		t.Error("ShardStats on unknown feed succeeded over HTTP")
	}
}

// TestErrStatusNotFooledByFeedID: status mapping must classify by sentinel,
// not by matching phrases that a feed ID can smuggle into the message.
func TestErrStatusNotFooledByFeedID(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	id := `unknown feed x`
	if err := NewClient(srv.URL).CreateFeed(FeedConfig{ID: id}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/feeds", "application/json",
		strings.NewReader(`{"id":"unknown feed x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create of %q returned %d, want 409", id, resp.StatusCode)
	}
}

// TestClientEscapesFeedIDs round-trips feed IDs holding the characters a
// URL path gives meaning to through every client call that names a feed, of
// server.Client, cluster.Client and repl.Client, to a real gateway: each
// frame must reach that feed's route, not another feed or a parse error.
func TestClientEscapesFeedIDs(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	h := NewHandler(g).(*api)
	var reached sync.Map // route → the feed its last frame named
	for rt := stream.Route(1); rt < stream.NumRoutes; rt++ {
		wrapRoute(h, rt, func(serve func(*api, *call, *reply)) func(*api, *call, *reply) {
			return func(a *api, c *call, rep *reply) {
				reached.Store(rt, c.Feed)
				serve(a, c, rep)
			}
		})
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewClient(srv.URL)
	var cc cluster.Client
	defer cc.Close()
	rc := repl.NewClient(srv.URL)
	defer rc.Close()
	for _, id := range []string{"a/b", "a?b", "a#b", "a%b", "a%2Fb", "a b"} {
		reach := func(call string, rt stream.Route, err error) {
			t.Helper()
			if got, _ := reached.LoadAndDelete(rt); err != nil || got != id {
				t.Fatalf("%s(%q) reached feed %q: %v", call, id, got, err)
			}
		}
		if err := c.CreateFeed(FeedConfig{ID: id, Shards: 2, EpochOps: 1}); err != nil {
			t.Fatalf("CreateFeed(%q): %v", id, err)
		}
		_, err := c.Do(id, []Op{{Type: "write", Key: "k1", Value: []byte("v1")}, {Type: "write", Key: "k2", Value: []byte("v2")}})
		reach("Do", stream.RouteOps, err)
		res, err := c.Get(id, "k1")
		reach("Get", stream.RouteGet, err)
		if !res.Found || string(res.Record.Value) != "v1" {
			t.Fatalf("Get(%q): %+v", id, res)
		}
		slices, err := c.Range(id, "k", "l")
		reach("Range", stream.RouteRange, err)
		n := 0
		for _, s := range slices {
			n += len(s.Range.Records)
		}
		if n != 2 {
			t.Fatalf("Range(%q): %d records, want 2", id, n)
		}
		roots, err := c.Roots(id)
		reach("Roots", stream.RouteRoots, err)
		anchors, err := cc.Anchors(srv.URL, id)
		reach("Anchors", stream.RouteRoots, err)
		if len(roots) != 2 || len(anchors) != 2 {
			t.Fatalf("Roots(%q), Anchors(%q): %d and %d shards, want 2", id, id, len(roots), len(anchors))
		}
		st, err := c.Stats(id)
		reach("Stats", stream.RouteStats, err)
		if st.Ops != 2 {
			t.Fatalf("Stats(%q): %d ops, want 2", id, st.Ops)
		}
		_, err = rc.Log(id, 1, 0, 8)
		reach("Log", stream.RouteLog, err)
		_, err = rc.Snapshot(id, 1)
		reach("Snapshot", stream.RouteReplSnapshot, err)
		// A gateway outside a cluster refuses the move, after the frame
		// reached the feed's move route.
		_, err = cc.Move(srv.URL, id, "http://target")
		if err == nil || !strings.Contains(err.Error(), "clustering disabled") {
			t.Fatalf("Move(%q): %v, want the refusal of a gateway outside a cluster", id, err)
		}
		reach("Move", stream.RouteMove, nil)
		err = c.CloseFeed(id)
		reach("CloseFeed", stream.RouteCloseFeed, err)
		if _, err := c.Stats(id); err == nil {
			t.Fatalf("Stats(%q) after CloseFeed succeeded", id)
		}
	}
}

// TestShardedGatewayEquivalence is the acceptance test for the sharded
// engine end to end: a gateway-hosted sharded feed (N in {2,4,8}) driven by
// 32 concurrent HTTP clients must match N independent single feeds each
// replaying its shard's serialized sub-trace — per-key results, delivered
// counts, and total gas, exactly. Run under -race this covers the whole
// HTTP -> gateway -> scatter-gather -> shard-worker stack.
func TestShardedGatewayEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				clients        = 32
				batchesPerClnt = 3
				opsPerBatch    = 8
				records        = 24
			)
			cfg := FeedConfig{
				ID:          "sharded",
				Policy:      "memoryless",
				K:           2,
				Shards:      shards,
				EpochOps:    8,
				RecordTrace: true,
			}
			g := NewGateway()
			defer g.Close()
			srv := httptest.NewServer(NewHandler(g))
			defer srv.Close()
			c := NewClient(srv.URL)
			if err := c.CreateFeed(cfg); err != nil {
				t.Fatal(err)
			}
			preload := core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadA, records, 32, 1).Preload())
			if _, err := c.Do(cfg.ID, preload); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					cl := NewClient(srv.URL)
					d := ycsb.NewDriver(ycsb.WorkloadA, records, 32, uint64(2000+ci))
					for b := 0; b < batchesPerClnt; b++ {
						results, err := cl.Do(cfg.ID, core.FromWorkload(d.Generate(opsPerBatch)))
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

			// The merged trace concatenates per-shard sub-traces; splitting
			// by the shared hash routing recovers each shard's exact order.
			trace, recorded, err := c.TraceResults(cfg.ID)
			if err != nil {
				t.Fatal(err)
			}
			wantOps := len(preload) + clients*batchesPerClnt*opsPerBatch
			if len(trace) != wantOps || len(recorded) != wantOps {
				t.Fatalf("trace ops/results = %d/%d, want %d", len(trace), len(recorded), wantOps)
			}
			subTrace := make([][]Op, shards)
			subRes := make([][]OpResult, shards)
			for i, op := range trace {
				sh := shard.ShardOf(op.Key, shards)
				subTrace[sh] = append(subTrace[sh], op)
				subRes[sh] = append(subRes[sh], recorded[i])
			}

			per, err := c.ShardStats(cfg.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Stats(cfg.ID)
			if err != nil {
				t.Fatal(err)
			}
			var wantAgg core.FeedStats
			for sh := 0; sh < shards; sh++ {
				ref, err := NewFeed(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replayed := core.ApplyOps(ref, subTrace[sh])
				for j, res := range replayed {
					rec := subRes[sh][j]
					if res.Key != rec.Key || res.Found != rec.Found ||
						!bytes.Equal(res.Value, rec.Value) || res.Err != rec.Err {
						t.Errorf("shard %d op %d: replay %+v != recorded %+v", sh, j, res, rec)
					}
				}
				want := ref.Stats()
				if per[sh].Feed != want {
					t.Errorf("shard %d stats diverge from single-feed replay:\n got %+v\nwant %+v", sh, per[sh].Feed, want)
				}
				if per[sh].Ops != len(subTrace[sh]) {
					t.Errorf("shard %d ops = %d, want %d", sh, per[sh].Ops, len(subTrace[sh]))
				}
				wantAgg.Delivered += want.Delivered
				wantAgg.NotFound += want.NotFound
				wantAgg.FeedGas += want.FeedGas
				wantAgg.TotalGas += want.TotalGas
				wantAgg.Height += want.Height
				wantAgg.TxCount += want.TxCount
				wantAgg.Records += want.Records
				wantAgg.Replicated += want.Replicated
			}
			if got.Feed != wantAgg {
				t.Errorf("aggregate stats diverge from summed replays:\n got %+v\nwant %+v", got.Feed, wantAgg)
			}
			if got.Ops != wantOps {
				t.Errorf("ops = %d, want %d", got.Ops, wantOps)
			}
			if got.Feed.Delivered == 0 {
				t.Error("no reads delivered — workload did not exercise the feed")
			}
		})
	}
}

// BenchmarkGateway measures batched throughput through the full HTTP stack:
// one feed per available worker slot, concurrent clients, YCSB-A batches.
// It reports ops/sec (the inverse of ns/op via b.N) and gas/op.
func BenchmarkGateway(b *testing.B) {
	const (
		feeds       = 4
		opsPerBatch = 16
		records     = 32
	)
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)
	for i := 0; i < feeds; i++ {
		id := fmt.Sprintf("feed%d", i)
		if err := c.CreateFeed(FeedConfig{ID: id, EpochOps: 8}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Do(id, core.FromWorkload(ycsb.NewDriver(ycsb.WorkloadA, records, 32, 1).Preload())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var mu sync.Mutex
	next := 0
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		ci := next
		next++
		mu.Unlock()
		cl := NewClient(srv.URL)
		id := fmt.Sprintf("feed%d", ci%feeds)
		d := ycsb.NewDriver(ycsb.WorkloadA, records, 32, uint64(100+ci))
		for pb.Next() {
			if _, err := cl.Do(id, core.FromWorkload(d.Generate(opsPerBatch))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	var totalGas float64
	var totalOps int
	for i := 0; i < feeds; i++ {
		st, err := c.Stats(fmt.Sprintf("feed%d", i))
		if err != nil {
			b.Fatal(err)
		}
		totalGas += st.GasPerOp * float64(st.Ops)
		totalOps += st.Ops
	}
	if totalOps > 0 {
		b.ReportMetric(totalGas/float64(totalOps), "gas/op")
		b.ReportMetric(float64(totalOps)/b.Elapsed().Seconds(), "ops/sec")
	}
}
