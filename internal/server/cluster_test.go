package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/query"
	"grub/internal/stream"
)

// testClusterNode is one member of an in-process gateway cluster: its own
// gateway, cluster node, listener and HTTP server — killable mid-test the
// way a real node dies (connections reset, heartbeats stop).
type testClusterNode struct {
	g    *Gateway
	node *cluster.Node
	srv  *http.Server
	url  string

	mu     sync.Mutex
	killed bool
}

func (tn *testClusterNode) kill() {
	tn.mu.Lock()
	if tn.killed {
		tn.mu.Unlock()
		return
	}
	tn.killed = true
	tn.mu.Unlock()
	tn.srv.Close() // closes the listener and every active connection
	tn.node.Close()
	tn.g.Close()
}

func (tn *testClusterNode) alive() bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return !tn.killed
}

// startTestCluster brings up n cluster nodes on ephemeral ports with fast
// test cadences. Every node knows every other as a static peer.
func startTestCluster(t testing.TB, n int) []*testClusterNode {
	t.Helper()
	return startTestClusterCfg(t, n, nil)
}

// startTestClusterCfg is startTestCluster with a per-node HandlerConfig
// hook: mod runs on each node's config before the handler is built, so
// tests can enable slow-op logging or tracing knobs on individual members.
func startTestClusterCfg(t testing.TB, n int, mod func(i int, hc *HandlerConfig)) []*testClusterNode {
	t.Helper()
	return startTestClusterOpts(t, n, nil, mod)
}

// startTestClusterOpts is startTestClusterCfg with a second hook, modOpts,
// that runs on each node's cluster.Options (test cadences and Local
// pre-filled) before the node is built.
func startTestClusterOpts(t testing.TB, n int, modOpts func(i int, o *cluster.Options), mod func(i int, hc *HandlerConfig)) []*testClusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		lns[i] = listenLocal(t)
		urls[i] = "http://" + lns[i].Addr().String()
	}
	nodes := make([]*testClusterNode, n)
	for i := range lns {
		g := NewGateway()
		opts := testNodeOptions(urls[i], urls, g)
		if modOpts != nil {
			modOpts(i, &opts)
		}
		var hc HandlerConfig
		if mod != nil {
			mod(i, &hc)
		}
		nodes[i] = serveTestNode(t, lns[i], g, opts, hc)
	}
	return nodes
}

// startTestObserver adds an observer (grubd -follow) of members: a node
// that tails every feed and forwards every write but never owns a feed.
// The members do not list it; it finds them through its own heartbeats.
func startTestObserver(t testing.TB, members []*testClusterNode) *testClusterNode {
	t.Helper()
	ln := listenLocal(t)
	urls := make([]string, len(members))
	for i, m := range members {
		urls[i] = m.url
	}
	g := NewGateway()
	opts := testNodeOptions("http://"+ln.Addr().String(), urls, g)
	opts.Observer = true
	return serveTestNode(t, ln, g, opts, HandlerConfig{})
}

func listenLocal(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// testFailAfter is how long a test node may go unheard-from before its
// peers declare it dead.
const testFailAfter = 120 * time.Millisecond

// testNodeOptions is the cluster.Options every test node starts from:
// fast test cadences and g as the node's Local. Self is filtered out of
// peers.
func testNodeOptions(self string, peers []string, g *Gateway) cluster.Options {
	return cluster.Options{
		Self: self, Peers: peers, Local: g,
		Heartbeat: 15 * time.Millisecond, FailAfter: testFailAfter,
		TailPoll: 3 * time.Millisecond, MoveTimeout: 30 * time.Second,
	}
}

// serveTestNode builds the cluster node opts describes over g, serves it on
// ln under hc (Cluster filled in) and starts it. The node dies with the
// test.
func serveTestNode(t testing.TB, ln net.Listener, g *Gateway, opts cluster.Options, hc HandlerConfig) *testClusterNode {
	t.Helper()
	node, err := cluster.NewNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	hc.Cluster = node
	srv := &http.Server{Handler: NewHandlerConfig(g, hc)}
	go srv.Serve(ln)
	node.Start()
	tn := &testClusterNode{g: g, node: node, srv: srv, url: opts.Self}
	t.Cleanup(tn.kill)
	return tn
}

// ownerIndex polls until every alive node agrees on the same un-fenced
// owner for feed and returns that owner's index in nodes. Requiring full
// agreement (not just one node's view) means callers can immediately route
// through any node without racing placement-map propagation.
func ownerIndex(t testing.TB, nodes []*testClusterNode, feed string, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		owner := ""
		agreed := true
		for _, tn := range nodes {
			if !tn.alive() {
				continue
			}
			e, ok := tn.node.Placement(feed)
			if !ok || e.Deleted || e.Fenced {
				agreed = false
				break
			}
			if owner == "" {
				owner = e.Owner
			} else if owner != e.Owner {
				agreed = false
				break
			}
		}
		if agreed && owner != "" {
			for j, o := range nodes {
				if o.url == owner && o.alive() {
					return j
				}
			}
			agreed = false // owner is a dead or unknown node; keep polling
		}
		if time.Now().After(deadline) {
			t.Fatalf("no agreed owner for %q within %v", feed, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitAnchorsEqual polls until every alive node hosts feed with identical
// per-shard anchors (seq, root, count) — replicas fully converged.
func waitAnchorsEqual(t *testing.T, nodes []*testClusterNode, feed string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		allEqual := true
		var ref []byte
		for _, tn := range nodes {
			if !tn.alive() {
				continue
			}
			e, err := tn.g.Query(feed)
			if err != nil {
				allEqual = false
				break
			}
			roots, err := e.Roots()
			if err != nil {
				allEqual = false
				break
			}
			var buf bytes.Buffer
			for _, ri := range roots {
				fmt.Fprintf(&buf, "%d:%d:%s:%d;", ri.Shard, ri.Seq, ri.Root, ri.Count)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(ref, buf.Bytes()) {
				allEqual = false
				break
			}
		}
		if allEqual && ref != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("anchors for %q did not converge within %v", feed, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writerLog tracks one client's write outcomes: acked keys must be durable
// forever; unknown keys (errored calls — the write may or may not have
// landed before a node died) may be present or absent, but nothing else may
// exist.
type writerLog struct {
	mu      sync.Mutex
	acked   []string
	unknown []string
}

func (wl *writerLog) record(key string, err error) {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if err == nil {
		wl.acked = append(wl.acked, key)
	} else {
		wl.unknown = append(wl.unknown, key)
	}
}

// padEpochs writes EpochOps filler keys into every shard of feed, forcing
// each shard's open epoch to seal so that every previously acked write
// enters the verified read views (verified reads serve epoch-committed
// state only — a trailing partial epoch is staged, not yet visible).
// Returns the filler keys; the fillers themselves may stay staged.
func padEpochs(t *testing.T, c *Client, feed string, shards, epochOps int) []string {
	t.Helper()
	var keys []string
	for s := 0; s < shards; s++ {
		wrote := 0
		for i := 0; wrote < epochOps; i++ {
			key := fmt.Sprintf("pad-%d-%04d", s, i)
			if query.ShardOf(key, shards) != s {
				continue
			}
			if _, err := c.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("val-" + key)}}); err != nil {
				t.Fatalf("epoch pad write %s: %v", key, err)
			}
			keys = append(keys, key)
			wrote++
		}
	}
	return keys
}

// TestClusterBasicRouting: any node accepts any request — creates and
// writes route to the owner transparently, reads verify locally everywhere.
func TestClusterBasicRouting(t *testing.T) {
	nodes := startTestCluster(t, 3)

	// Create through node 0 regardless of where the ring places the feed.
	c0 := NewClient(nodes[0].url)
	if err := c0.CreateFeed(FeedConfig{ID: "prices", Shards: 2, EpochOps: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, "prices", 5*time.Second)

	// Write through a non-owner: the request must proxy to the owner.
	wi := (oi + 1) % 3
	cw := NewClient(nodes[wi].url)
	cw.Retry = Retry{Attempts: 4, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	for i := 0; i < 40; i++ {
		if _, err := cw.Do("prices", []Op{{Type: "write", Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf("v%02d", i))}}); err != nil {
			t.Fatalf("write %d via non-owner: %v", i, err)
		}
	}
	if st := nodes[wi].node.Status(); st.ForwardsTotal == 0 {
		t.Error("non-owner forwarded no writes")
	}

	waitAnchorsEqual(t, nodes, "prices", 10*time.Second)

	// Every node serves verified reads from its local replica.
	for i, tn := range nodes {
		vc := NewVerifyingClient(tn.url)
		for k := 0; k < 40; k++ {
			key := fmt.Sprintf("k%02d", k)
			res, err := vc.Get("prices", key)
			if err != nil {
				t.Fatalf("node %d verified get %s: %v", i, key, err)
			}
			if !res.Found || string(res.Record.Value) != fmt.Sprintf("v%02d", k) {
				t.Fatalf("node %d key %s = found=%v result=%+v", i, key, res.Found, res)
			}
		}
		if verified, _ := vc.VerifiedStats(); verified == 0 {
			t.Fatalf("node %d verified nothing", i)
		}
	}

	// The cluster surface reports a healthy, quorate membership.
	cc := &cluster.Client{}
	st, err := cc.Status(nodes[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || !st.Quorum || len(st.Members) != 3 {
		t.Fatalf("cluster status = %+v", st)
	}
	for _, m := range st.Members {
		if !m.Alive {
			t.Fatalf("member %s not alive: %+v", m.URL, st.Members)
		}
	}
}

// TestClusterFailover is the 3-node kill test: 32 verifying clients sustain
// writes to one hot feed, the owner dies mid-storm, a successor must
// promote itself (anchor-verified), writes through both survivors must be
// acked and strictly durable once the successor holds the feed, no write
// may be double-applied, every proof must verify, and the survivors' final
// anchors must be identical. Writes acked by the old owner just before it
// died may be lost — replication is asynchronous, so an ack only proves
// the OWNER applied the op — but the survivors must agree key-by-key on
// which of those landed (no split history).
func TestClusterFailover(t *testing.T) {
	nodes := startTestCluster(t, 3)

	c0 := NewClient(nodes[0].url)
	if err := c0.CreateFeed(FeedConfig{ID: "hot", Shards: 2, EpochOps: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, "hot", 5*time.Second)
	epochBefore, _ := nodes[oi].node.Placement("hot")

	const writers = 32
	const opsPerWriter = 30
	logs := make([]writerLog, writers)
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// Writers spread across all three nodes; the ones pointed at
			// the dead node will fail (their writes become "unknown"), the
			// rest retry through the failover window.
			vc := NewVerifyingClient(nodes[wid%3].url)
			vc.Client.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
			for j := 0; j < opsPerWriter; j++ {
				key := fmt.Sprintf("w%02d-%03d", wid, j)
				_, err := vc.Do("hot", []Op{{Type: "write", Key: key, Value: []byte("val-" + key)}})
				logs[wid].record(key, err)
				time.Sleep(2 * time.Millisecond)
			}
		}(wid)
	}

	// Kill the hot feed's owner mid-storm.
	time.Sleep(150 * time.Millisecond)
	nodes[oi].kill()
	wg.Wait()

	// A successor must promote itself.
	ni := ownerIndex(t, nodes, "hot", 10*time.Second)
	if ni == oi {
		t.Fatalf("owner index still %d after kill", oi)
	}
	e, _ := nodes[ni].node.Placement("hot")
	if e.Epoch <= epochBefore.Epoch {
		t.Fatalf("promotion did not bump the fencing epoch: %d -> %d", epochBefore.Epoch, e.Epoch)
	}
	failovers := int64(0)
	for i, tn := range nodes {
		if i != oi {
			failovers += tn.node.Status().FailoversTotal
		}
	}
	if failovers != 1 {
		t.Errorf("failover promotions = %d, want exactly 1", failovers)
	}

	// Phase 2: the cluster must be fully serving again — writes routed
	// through EVERY survivor are acked by the promoted owner and therefore
	// strictly durable.
	var phase2 []string
	for i, tn := range nodes {
		if i == oi {
			continue
		}
		c := NewClient(tn.url)
		c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
		for j := 0; j < 20; j++ {
			key := fmt.Sprintf("p%d-%03d", i, j)
			if _, err := c.Do("hot", []Op{{Type: "write", Key: key, Value: []byte("val-" + key)}}); err != nil {
				t.Fatalf("post-failover write %s via survivor %d: %v", key, i, err)
			}
			phase2 = append(phase2, key)
		}
	}

	// Seal the last partial epochs so every acked write is visible to the
	// verified read path, then wait for the survivors to converge to
	// identical anchors.
	cs := NewClient(nodes[ni].url)
	cs.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	pads := padEpochs(t, cs, "hot", 2, 4)
	waitAnchorsEqual(t, nodes, "hot", 15*time.Second)

	var allKeys []string
	ackedTotal := 0
	for i := range logs {
		allKeys = append(allKeys, logs[i].acked...)
		allKeys = append(allKeys, logs[i].unknown...)
		ackedTotal += len(logs[i].acked)
	}
	if ackedTotal == 0 {
		t.Fatal("no storm write was ever acked")
	}
	t.Logf("storm: acked=%d unknown=%d", ackedTotal, len(allKeys)-ackedTotal)
	allKeys = append(allKeys, phase2...)
	allKeys = append(allKeys, pads...)

	// Both survivors serve every present key with a verifying proof and the
	// written value; phase-2 writes must all be present; record counts must
	// equal the distinct present keys (nothing invented, nothing applied
	// under a superseded epoch); and the survivors must agree key-by-key on
	// which storm writes landed.
	var presentOn []map[string]bool
	for i, tn := range nodes {
		if i == oi {
			continue
		}
		vc := NewVerifyingClient(tn.url)
		present := make(map[string]bool)
		for _, key := range allKeys {
			res, err := vc.Get("hot", key)
			if err != nil {
				t.Fatalf("survivor %d verified get %s: %v", i, key, err)
			}
			if res.Found {
				if string(res.Record.Value) != "val-"+key {
					t.Fatalf("survivor %d key %s has corrupt value %q", i, key, res.Record.Value)
				}
				present[key] = true
			}
		}
		for _, key := range phase2 {
			if !present[key] {
				t.Fatalf("survivor %d lost post-failover acked write %s", i, key)
			}
		}
		if verified, _ := vc.VerifiedStats(); verified == 0 {
			t.Fatalf("survivor %d verified no proofs", i)
		}
		st, err := tn.g.Stats("hot")
		if err != nil {
			t.Fatal(err)
		}
		// The record count may run ahead of the committed views by at most
		// the still-staged pad writes; anything beyond that is an invented
		// or double-applied record.
		if got, lo, hi := st.Feed.Records, len(present), len(present)+len(pads); got < lo || got > hi {
			t.Fatalf("survivor %d records = %d, want within [%d, %d]", i, got, lo, hi)
		}
		presentOn = append(presentOn, present)
	}
	for _, key := range allKeys {
		if presentOn[0][key] != presentOn[1][key] {
			t.Fatalf("survivors disagree on key %s (%v vs %v)", key, presentOn[0][key], presentOn[1][key])
		}
	}
}

// TestClusterMigration moves a feed between nodes in the middle of a write
// storm: no acked op may be lost, ownership must flip everywhere, and the
// old owner must redirect post-fence writes to the new owner.
func TestClusterMigration(t *testing.T) {
	nodes := startTestCluster(t, 3)

	c0 := NewClient(nodes[0].url)
	if err := c0.CreateFeed(FeedConfig{ID: "mig", Shards: 2, EpochOps: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, "mig", 5*time.Second)
	ti := (oi + 1) % 3 // migration target
	pi := (oi + 2) % 3 // bystander that will proxy the move request

	const writers = 8
	logs := make([]writerLog, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			c := NewClient(nodes[wid%3].url)
			c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("m%02d-%04d", wid, j)
				_, err := c.Do("mig", []Op{{Type: "write", Key: key, Value: []byte("val-" + key)}})
				logs[wid].record(key, err)
				time.Sleep(time.Millisecond)
			}
		}(wid)
	}

	// Move the feed mid-storm, via a node that owns nothing here: the
	// request must proxy to the owner, which runs the migration.
	time.Sleep(100 * time.Millisecond)
	cc := &cluster.Client{HTTP: &http.Client{Timeout: 60 * time.Second}}
	res, err := cc.Move(nodes[pi].url, "mig", nodes[ti].url)
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if res.To != nodes[ti].url || res.From != nodes[oi].url {
		t.Fatalf("move result = %+v", res)
	}

	// Keep the storm running across the cutover, then stop.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Ownership flipped everywhere.
	deadline := time.Now().Add(5 * time.Second)
	for _, tn := range nodes {
		for {
			if e, ok := tn.node.Placement("mig"); ok && e.Owner == nodes[ti].url && !e.Fenced {
				break
			}
			if time.Now().After(deadline) {
				e, _ := tn.node.Placement("mig")
				t.Fatalf("node %s placement never flipped: %+v", tn.url, e)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The old owner redirects post-fence writes to the new owner: a
	// request marked as already-forwarded must answer 421 + Leader rather
	// than proxying again.
	var peer stream.Pool
	defer peer.Close()
	ans, err := peer.Send(nil, nodes[oi].url, &stream.Request{Route: stream.RouteOps, Feed: "mig",
		Flags: stream.Forwarded | stream.JSONBody, Body: []byte(`{"ops":[{"type":"write","key":"post-fence","value":"eA=="}]}`)})
	if err != nil {
		t.Fatal(err)
	}
	ans.Close()
	if ans.Status != http.StatusMisdirectedRequest {
		t.Fatalf("post-fence write to old owner = HTTP %d, want 421", ans.Status)
	}
	if ans.Leader != nodes[ti].url {
		t.Fatalf("post-fence redirect Leader = %q, want %q", ans.Leader, nodes[ti].url)
	}

	// Seal the last partial epochs so every acked write is visible to the
	// verified read path, then wait for full convergence.
	ct := NewClient(nodes[ti].url)
	ct.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	pads := padEpochs(t, ct, "mig", 2, 4)
	waitAnchorsEqual(t, nodes, "mig", 15*time.Second)

	var acked, unknown []string
	for i := range logs {
		acked = append(acked, logs[i].acked...)
		unknown = append(unknown, logs[i].unknown...)
	}
	if len(acked) == 0 {
		t.Fatal("no write was ever acked")
	}
	t.Logf("acked=%d unknown=%d", len(acked), len(unknown))

	// Zero lost ops: every acked write is durable and proof-verified on
	// the new owner; record count admits nothing beyond the keys written.
	vc := NewVerifyingClient(nodes[ti].url)
	for _, key := range acked {
		res, err := vc.Get("mig", key)
		if err != nil {
			t.Fatalf("verified get %s on new owner: %v", key, err)
		}
		if !res.Found || string(res.Record.Value) != "val-"+key {
			t.Fatalf("migration lost acked write %s (found=%v)", key, res.Found)
		}
	}
	st, err := nodes[ti].g.Stats("mig")
	if err != nil {
		t.Fatal(err)
	}
	if got, lo, hi := st.Feed.Records, len(acked), len(acked)+len(unknown)+len(pads); got < lo || got > hi {
		t.Fatalf("records = %d, want within [%d, %d] (no lost or duplicated ops)", got, lo, hi)
	}
}

// BenchmarkClusterWrite times one single-op write on a 2-node cluster,
// sent to the feed's owner (applied locally) and to the other node
// (proxied one hop to the owner): the difference is the forward tax.
func BenchmarkClusterWrite(b *testing.B) {
	nodes := startTestCluster(b, 2)
	const feed = "bench"
	if err := NewClient(nodes[0].url).CreateFeed(FeedConfig{ID: feed, EpochOps: 8}); err != nil {
		b.Fatal(err)
	}
	oi := ownerIndex(b, nodes, feed, 5*time.Second)
	for _, path := range []struct {
		name string
		node int
	}{{"owner", oi}, {"forwarded", 1 - oi}} {
		b.Run(path.name, func(b *testing.B) {
			c := NewClient(nodes[path.node].url)
			op := []Op{{Type: "write", Value: []byte("benchvalue")}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op[0].Key = fmt.Sprintf("%s-%d", path.name, i%256)
				if _, err := c.Do(feed, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
