package server

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/kvstore"
	"grub/internal/query"
	"grub/internal/workload/ycsb"
)

// startPersistentGateway brings up a persistent gateway over HTTP and
// returns it with a connected client. Shutdown is the caller's: either
// g.Close() (graceful) or g.Kill() (crash).
func startPersistentGateway(t *testing.T, dataDir string, snapshotEvery int) (*Gateway, *Client, func()) {
	t.Helper()
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: dataDir, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	return g, NewClient(srv.URL), srv.Close
}

// gatewayFeeds is the heterogeneous feed mix every gateway persistence test
// hosts: different policies, shard counts and epoch lengths.
func gatewayFeeds() []FeedConfig {
	return []FeedConfig{
		{ID: "prices", Policy: "memoryless", K: 2, Shards: 4, EpochOps: 8},
		{ID: "relay", Policy: "memorizing", K: 2, Shards: 1, EpochOps: 4},
		{ID: "archive", Policy: "bl1", Shards: 2, EpochOps: 8},
	}
}

// feedBatches builds each feed's deterministic batch sequence.
func feedBatches(n, opsPer int) map[string][][]Op {
	out := make(map[string][][]Op)
	for fi, cfg := range gatewayFeeds() {
		d := ycsb.NewDriver(ycsb.WorkloadA, 24, 32, uint64(100+fi))
		var batches [][]Op
		for i := 0; i < n; i++ {
			batches = append(batches, core.FromWorkload(d.Generate(opsPer)))
		}
		out[cfg.ID] = batches
	}
	return out
}

// driveRange applies each feed's batches[from:to] concurrently (one client
// goroutine per feed; each feed's own order stays deterministic).
func driveRange(t *testing.T, c *Client, batches map[string][][]Op, from, to int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(batches))
	for id, bs := range batches {
		wg.Add(1)
		go func(id string, bs [][]Op) {
			defer wg.Done()
			for _, b := range bs[from:to] {
				if _, err := c.Do(id, b); err != nil {
					errs <- fmt.Errorf("feed %s: %w", id, err)
					return
				}
			}
		}(id, bs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// readbackOps builds one identical read batch over every key a feed's
// batches touched.
func readbackOps(batches [][]Op) []Op {
	seen := make(map[string]bool)
	var reads []Op
	for _, b := range batches {
		for _, op := range b {
			if !seen[op.Key] {
				seen[op.Key] = true
				reads = append(reads, Op{Type: "read", Key: op.Key})
			}
		}
	}
	return reads
}

// TestGatewayCrashRecoveryEquivalence is the HTTP-layer acceptance test:
// kill the gateway mid-load at three different points, restart from the
// data directory, finish the load, and every feed must match an
// uninterrupted single-process run exactly — keys and values, cumulative
// gas, delivered counts.
func TestGatewayCrashRecoveryEquivalence(t *testing.T) {
	const totalBatches = 12
	for _, cut := range []int{2, 6, 10} {
		for _, snapEvery := range []int{0, 3} {
			t.Run(fmt.Sprintf("cut=%d/snapEvery=%d", cut, snapEvery), func(t *testing.T) {
				batches := feedBatches(totalBatches, 8)

				// Uninterrupted reference: an in-memory gateway takes the
				// whole load in one process.
				refG, err := NewGatewayWithOptions(GatewayOptions{})
				if err != nil {
					t.Fatal(err)
				}
				refSrv := httptest.NewServer(NewHandler(refG))
				defer refSrv.Close()
				defer refG.Close()
				refC := NewClient(refSrv.URL)
				for _, cfg := range gatewayFeeds() {
					if err := refC.CreateFeed(cfg); err != nil {
						t.Fatal(err)
					}
				}
				driveRange(t, refC, batches, 0, totalBatches)

				// Crash run: load until cut, kill without flushing.
				dir := t.TempDir()
				g1, c1, stop1 := startPersistentGateway(t, dir, snapEvery)
				for _, cfg := range gatewayFeeds() {
					if err := c1.CreateFeed(cfg); err != nil {
						t.Fatal(err)
					}
				}
				driveRange(t, c1, batches, 0, cut)
				g1.Kill()
				stop1()

				// Restart from the data dir: the manifest recreates every
				// feed and each shard recovers its durable log.
				g2, c2, stop2 := startPersistentGateway(t, dir, snapEvery)
				defer stop2()
				defer g2.Close()
				feeds, err := c2.Feeds()
				if err != nil {
					t.Fatal(err)
				}
				if len(feeds) != len(gatewayFeeds()) {
					t.Fatalf("recovered %d feeds (%v), want %d", len(feeds), feeds, len(gatewayFeeds()))
				}
				driveRange(t, c2, batches, cut, totalBatches)

				for _, cfg := range gatewayFeeds() {
					reads := readbackOps(batches[cfg.ID])
					got, err := c2.Do(cfg.ID, reads)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refC.Do(cfg.ID, reads)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("feed %s: read-back diverges after recovery", cfg.ID)
					}
					gotSt, err := c2.Stats(cfg.ID)
					if err != nil {
						t.Fatal(err)
					}
					wantSt, err := refC.Stats(cfg.ID)
					if err != nil {
						t.Fatal(err)
					}
					if gotSt.Feed != wantSt.Feed {
						t.Errorf("feed %s: stats diverge:\n got %+v\nwant %+v", cfg.ID, gotSt.Feed, wantSt.Feed)
					}
					if gotSt.Ops != wantSt.Ops {
						t.Errorf("feed %s: ops = %d, want %d", cfg.ID, gotSt.Ops, wantSt.Ops)
					}
				}
			})
		}
	}
}

// feedRoots reads every feed's per-shard anchors.
func feedRoots(t *testing.T, g *Gateway) map[string][]query.RootInfo {
	t.Helper()
	out := make(map[string][]query.RootInfo)
	for _, id := range g.Feeds() {
		e, err := g.Query(id)
		if err != nil {
			t.Fatal(err)
		}
		if out[id], err = e.Roots(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGatewayRecoverErrorClosesEverything kills a gateway hosting the three
// persistence-test feeds and corrupts one shard each of two of them.
// Recovery must fail naming the first corrupt feed in manifest order (IDs
// sorted: archive, prices, relay) and its shard, leave no goroutine behind,
// and leave the other stores intact: with the corrupted shards put back from
// a copy taken before the corruption, the directory reopens to the pre-kill
// anchors of every feed, as the copy itself does.
func TestGatewayRecoverErrorClosesEverything(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range gatewayFeeds() {
		if err := g.CreateFeed(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for id, bs := range feedBatches(6, 8) {
		for _, b := range bs {
			if _, err := g.Do(id, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := feedRoots(t, g)
	g.Kill()

	pristine := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(pristine, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	corrupt := []string{
		filepath.Join("feeds", feedDirName("relay"), "shard-000"),
		filepath.Join("feeds", feedDirName("prices"), "shard-002"),
	}
	for _, sub := range corrupt {
		// Overwrite the shard's first logged batch (shard's log key
		// format) with a payload that is not an op batch.
		db, err := kvstore.Open(filepath.Join(dir, sub), kvstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte(fmt.Sprintf("log/%016x", 1)), append(kvstore.AppendRecordHeader(nil, kvstore.RecordOpsWire, 1), "{not ops"...)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	base := runtime.NumGoroutine()
	_, err = NewGatewayWithOptions(GatewayOptions{DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), `recover feed "prices": shard 2: `) {
		t.Fatalf("recovery over corrupt prices and relay = %v, want prices shard 2's error", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed recovery, want <= %d", runtime.NumGoroutine(), base)
		}
	}

	for _, sub := range corrupt {
		if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(filepath.Join(dir, sub), os.DirFS(filepath.Join(pristine, sub))); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []string{pristine, dir} {
		g, err := NewGatewayWithOptions(GatewayOptions{DataDir: d})
		if err != nil {
			t.Fatal(err)
		}
		if got := feedRoots(t, g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reopened anchors diverge:\n got %+v\nwant %+v", d, got, want)
		}
		g.Kill()
	}
}

// TestGatewayManifestDuplicateRefused: feeds recover concurrently, so a
// manifest naming one ID twice (never written by the gateway, only by hand)
// would have two recoveries open one store; it is refused instead.
func TestGatewayManifestDuplicateRefused(t *testing.T) {
	dir := t.TempDir()
	m := `{"feeds":[{"id":"a"},{"id":"b"},{"id":"a"}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewGatewayWithOptions(GatewayOptions{DataDir: dir})
	if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), `feed "a"`) {
		t.Fatalf("recovery over a duplicate manifest = %v, want a bad-config error naming a", err)
	}
}

// BenchmarkGatewayRecover times NewGatewayWithOptions over a killed data
// directory holding four one-shard feeds with a fixed logged history (no
// snapshots: every batch replays) and reports the recovered ops per second.
func BenchmarkGatewayRecover(b *testing.B) {
	const feeds, batches, opsPer = 4, 128, 16
	opts := GatewayOptions{DataDir: b.TempDir()}
	g, err := NewGatewayWithOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < feeds; f++ {
		id := fmt.Sprintf("f%d", f)
		if err := g.CreateFeed(FeedConfig{ID: id, EpochOps: 8}); err != nil {
			b.Fatal(err)
		}
		d := ycsb.NewDriver(ycsb.WorkloadA, 1024, 32, uint64(f+1))
		for i := 0; i < batches; i++ {
			if _, err := g.Do(id, core.FromWorkload(d.Generate(opsPer))); err != nil {
				b.Fatal(err)
			}
		}
	}
	g.Kill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewGatewayWithOptions(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		g.Kill()
		b.StartTimer()
	}
	b.ReportMetric(float64(feeds*batches*opsPer*b.N)/b.Elapsed().Seconds(), "recovered_ops/s")
}

// TestGatewaySnapshotEndpoint exercises POST /feeds/{id}/snapshot and the
// persist fields of GET /feeds/{id}/stats and GET /info.
func TestGatewaySnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	g, c, stop := startPersistentGateway(t, dir, 0)
	defer stop()
	defer g.Close()

	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Persistent || info.DataDir != dir {
		t.Errorf("info = %+v, want persistent with dataDir %q", info, dir)
	}

	if err := c.CreateFeed(FeedConfig{ID: "f", Shards: 2, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	d := ycsb.NewDriver(ycsb.WorkloadA, 16, 32, 5)
	for i := 0; i < 3; i++ {
		if _, err := c.Do("f", core.FromWorkload(d.Generate(8))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Persist == nil || st.Persist.LoggedBatches == 0 {
		t.Fatalf("stats before snapshot: persist = %+v, want logged batches", st.Persist)
	}
	ps, err := c.Snapshot("f")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Snapshots != 2 || ps.LoggedBatches != 0 {
		t.Errorf("snapshot counters = %+v, want 2 snapshots (one per shard), 0 logged", ps)
	}

	// In-memory gateways refuse snapshots with 400.
	memG := NewGateway()
	memSrv := httptest.NewServer(NewHandler(memG))
	defer memSrv.Close()
	defer memG.Close()
	memC := NewClient(memSrv.URL)
	if err := memC.CreateFeed(FeedConfig{ID: "m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := memC.Snapshot("m"); err == nil {
		t.Error("Snapshot on in-memory gateway succeeded, want error")
	}
	memInfo, err := memC.Info()
	if err != nil {
		t.Fatal(err)
	}
	if memInfo.Persistent || memInfo.DataDir != "" {
		t.Errorf("in-memory info = %+v", memInfo)
	}
}

// TestGatewayReportsFailedCheckpoint: a shard whose store checkpoint fails
// keeps serving, and says so on GET /feeds/{id}/shards and in the feed's
// aggregate stats; after a kill, a restart recovers the full state from the
// store's WAL. The failure is staged from outside the engine: a directory
// squatting on the shard store's base.tmp fails the checkpoint of every
// automatic snapshot.
func TestGatewayReportsFailedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g, c, stop := startPersistentGateway(t, dir, 2)
	if err := c.CreateFeed(FeedConfig{ID: "f", Shards: 1, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	obstacle := filepath.Join(dir, "feeds", feedDirName("f"), "shard-000", "base.tmp")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		var ops []Op
		for i := 0; i < 8; i++ {
			ops = append(ops, Op{Type: "write", Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d-%d", n, i))})
		}
		if _, err := c.Do("f", ops); err != nil {
			t.Fatal(err)
		}
	}

	const want = "checkpoint"
	shards, err := c.ShardStats("f")
	if err != nil {
		t.Fatal(err)
	}
	if p := shards[0].Persist; p == nil || !strings.Contains(p.LastError, want) {
		t.Fatalf("shard persist stat = %+v, want lastError naming the %s", shards[0].Persist, want)
	}
	st, err := c.Stats("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Persist == nil || !strings.Contains(st.Persist.LastError, want) {
		t.Errorf("feed persist stats = %+v, want lastError naming the %s", st.Persist, want)
	}
	reads := []Op{{Type: "read", Key: "k0"}, {Type: "read", Key: "k7"}}
	res, err := c.Do("f", reads)
	if err != nil || len(res) != 2 || res[0].Err != "" {
		t.Fatalf("read after the failed checkpoint = %+v, %v", res, err)
	}
	before, roots := mustStats(t, c, "f"), feedRoots(t, g)
	g.Kill()
	stop()

	g2, c2, stop2 := startPersistentGateway(t, dir, 0)
	defer stop2()
	defer g2.Close()
	if after := mustStats(t, c2, "f"); after.Feed != before.Feed || after.Ops != before.Ops {
		t.Errorf("recovered stats %+v, want %+v", after, before)
	}
	if got := feedRoots(t, g2); !reflect.DeepEqual(got, roots) {
		t.Errorf("recovered anchors %v, want %v", got, roots)
	}
}

func mustStats(t *testing.T, c *Client, id string) Stats {
	t.Helper()
	st, err := c.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGatewayCloseFeedRemovesStore pins DELETE semantics on a persistent
// gateway: the feed leaves the manifest and its store directory, so a
// restart neither lists nor resurrects it.
func TestGatewayCloseFeedRemovesStore(t *testing.T) {
	dir := t.TempDir()
	g, c, stop := startPersistentGateway(t, dir, 0)
	if err := c.CreateFeed(FeedConfig{ID: "gone", EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFeed(FeedConfig{ID: "kept", EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("gone", []Op{{Type: "write", Key: "k", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFeed("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "feeds", feedDirName("gone"))); !os.IsNotExist(err) {
		t.Errorf("store dir for closed feed still exists (err=%v)", err)
	}
	g.Close()
	stop()

	g2, c2, stop2 := startPersistentGateway(t, dir, 0)
	defer stop2()
	defer g2.Close()
	feeds, err := c2.Feeds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(feeds, []string{"kept"}) {
		t.Errorf("feeds after restart = %v, want [kept]", feeds)
	}
}

// TestFeedDirName pins the ID-to-directory encoding: path-safe IDs keep
// their (prefixed) name, everything else becomes hex, and the two
// namespaces cannot collide.
func TestFeedDirName(t *testing.T) {
	if got := feedDirName("prices-1.v2"); got != "d-prices-1.v2" {
		t.Errorf("safe ID mangled: %q", got)
	}
	ids := []string{"../../etc", "a/b", ".hidden", "sp ace", "", "x-612f62", "a_b", "prices"}
	seen := map[string]string{}
	for _, id := range ids {
		got := feedDirName(id)
		if got != filepath.Base(got) || got == "" || got[0] == '.' {
			t.Errorf("feedDirName(%q) = %q is not a safe single path element", id, got)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("IDs %q and %q collide on %q", prev, id, got)
		}
		seen[got] = id
	}
	// The historical collision: an unsafe ID's hex encoding vs a safe ID
	// that happens to spell that encoding.
	if feedDirName("a/b") == feedDirName(feedDirName("a/b")) {
		t.Error("hex encoding collides with a literal safe ID")
	}
}
