package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
	"grub/internal/stream"
)

// listCounter counts the feed-list requests (GET /repl/feeds, replication
// feed discovery) one node sends. Its Transport wraps every connection the
// node dials in a dialedConn, which counts them as the node writes them.
type listCounter struct {
	lists atomic.Int64
}

func (c *listCounter) transport() *http.Transport {
	var d net.Dialer
	return &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return dialedConn{conn, &c.lists}, nil
	}}
}

// dialedConn counts into lists each request frame it writes that names the
// feed-list route. A stream writes each frame in one Write.
type dialedConn struct {
	net.Conn
	lists *atomic.Int64
}

func (c dialedConn) Write(p []byte) (int, error) {
	if len(p) > 4 && int(binary.BigEndian.Uint32(p)) == len(p)-4 && stream.Route(p[4]) == stream.RouteReplFeeds {
		c.lists.Add(1)
	}
	return c.Conn.Write(p)
}

// TestClusterTailListTraffic pins the cost of tailing non-owned feeds: a
// node discovers feeds once per peer per Follower refresh, so over a window
// of N refreshes it issues at most peers × (N+1) feed-list requests,
// whatever the number of feeds it tails.
func TestClusterTailListTraffic(t *testing.T) {
	const (
		refresh   = 500 * time.Millisecond // repl.Options.Refresh's default
		refreshes = 4
		peers     = 2
	)
	for _, feeds := range []int{4, 32} {
		counter := &listCounter{}
		nodes := startTestClusterOpts(t, peers+1, func(i int, o *cluster.Options) {
			if i == 0 {
				o.HTTP = &http.Client{Transport: counter.transport(), Timeout: 5 * time.Second}
			}
		}, nil)
		c := NewClient(nodes[0].url)
		c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
		for f := 0; f < feeds; f++ {
			if err := c.CreateFeed(FeedConfig{ID: fmt.Sprintf("f%02d", f), EpochOps: 4}); err != nil {
				t.Fatal(err)
			}
		}
		// Settle: every feed node 0 does not own is tailing.
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := nodes[0].node.Status()
			settled := len(st.Feeds) == feeds
			for _, fp := range st.Feeds {
				if fp.Role != "owner" && (fp.Tail == nil || fp.Tail.State != repl.StateTailing) {
					settled = false
				}
			}
			if settled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("F=%d: node 0 never settled: %+v", feeds, st.Feeds)
			}
			time.Sleep(10 * time.Millisecond)
		}
		before, start := counter.lists.Load(), time.Now()
		time.Sleep(refreshes * refresh)
		lists, window := counter.lists.Load()-before, time.Since(start)
		t.Logf("F=%d: node 0 issued %d GET /repl/feeds in %v (bound %d)", feeds, lists, window, peers*(refreshes+1))
		if lists < peers {
			t.Errorf("F=%d: %d feed-list requests in %v, want >= %d (one discovery per peer): the counter misses them", feeds, lists, window, peers)
		}
		if lists > peers*(refreshes+1) {
			t.Errorf("F=%d: %d feed-list requests over %d refreshes (window %v), want <= %d", feeds, lists, refreshes, window, peers*(refreshes+1))
		}
		for _, tn := range nodes {
			tn.kill()
		}
	}
}

// resetCounter wraps a node's cluster.Local to count the snapshot resets
// installed through it.
type resetCounter struct {
	cluster.Local
	n *atomic.Int64
}

func (c resetCounter) Feed(id string) (repl.Feed, error) {
	f, err := c.Local.Feed(id)
	if err != nil {
		return nil, err
	}
	return countedFeed{f, c.n}, nil
}

type countedFeed struct {
	repl.Feed
	n *atomic.Int64
}

func (f countedFeed) Reset(shard int, snap *repl.Snapshot) (uint64, error) {
	f.n.Add(1)
	return f.Feed.Reset(shard, snap)
}

// TestClusterHaltResetOncePerEpoch: a non-owner whose replica ran ahead of
// the owner halts its tail rather than fork. A tail gets one verified
// snapshot reset per placement epoch: under an epoch it was already reset
// at, it stays halted (and /healthz answers 503); a new epoch for the same
// owner re-bases it exactly once, after which it converges.
func TestClusterHaltResetOncePerEpoch(t *testing.T) {
	var resets [3]atomic.Int64
	nodes := startTestClusterOpts(t, 3, func(i int, o *cluster.Options) {
		o.Local = resetCounter{o.Local, &resets[i]}
	}, nil)
	const feed = "halt"
	c0 := NewClient(nodes[0].url)
	if err := c0.CreateFeed(FeedConfig{ID: feed, Shards: 1, EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, feed, 5*time.Second)
	xi := (oi + 1) % 3
	owner, x := nodes[oi], nodes[xi]
	oc := NewClient(owner.url)
	write := func(key string) {
		t.Helper()
		if _, err := oc.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("v-" + key)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		write(fmt.Sprintf("base%d", i))
	}
	waitAnchorsEqual(t, nodes, feed, 10*time.Second)

	// pushAhead applies two batches to x's replica only, then one on the
	// owner: x's tailer hits a sequence gap, resyncs its cursor past the
	// owner's sequence and halts.
	pushAhead := func(round int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			key := fmt.Sprintf("local%d-%d", round, i)
			if _, err := x.g.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("fork")}}); err != nil {
				t.Fatal(err)
			}
		}
		write(fmt.Sprintf("owner%d", round))
	}
	health := func() (int, HealthResponse) {
		t.Helper()
		resp, err := http.Get(x.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}
	waitResets := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for resets[xi].Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		waitAnchorsEqual(t, nodes, feed, 10*time.Second)
		time.Sleep(20 * 15 * time.Millisecond) // 20 heartbeats
		if got := resets[xi].Load(); got != want {
			t.Fatalf("snapshot resets = %d, want %d", got, want)
		}
	}

	// A fresh tail has not been reset yet: the first halt re-bases it once.
	pushAhead(1)
	waitResets(1)

	// The same epoch again: the tail halts and stays halted.
	pushAhead(2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, hr := health(); code == http.StatusServiceUnavailable && len(hr.Degraded) == 1 &&
			hr.Degraded[0].Feed == feed && hr.Degraded[0].State == repl.StateHalted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("x never reported its halted tail: %+v", x.node.Status().Feeds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * 15 * time.Millisecond) // 20 heartbeats under the same epoch
	if code, _ := health(); code != http.StatusServiceUnavailable {
		t.Fatalf("halted tail recovered under an unchanged epoch: /healthz %d", code)
	}
	if got := resets[xi].Load(); got != 1 {
		t.Fatalf("snapshot resets under an unchanged epoch = %d, want 1", got)
	}

	// A new epoch for the same owner: exactly one more reset, then
	// convergence and a healthy probe.
	before, _ := owner.node.Placement(feed)
	owner.node.ClaimFeed(feed)
	if after, _ := owner.node.Placement(feed); after.Epoch != before.Epoch+1 || after.Owner != owner.url {
		t.Fatalf("epoch bump: %+v -> %+v", before, after)
	}
	waitResets(2)
	if code, hr := health(); code != http.StatusOK {
		t.Fatalf("/healthz after re-base = %d %+v", code, hr)
	}
}

// TestClusterHopsRideStreams: 200 batches sent to a node that does not own
// their feed cross the forward hop as stream frames while the third node
// tails the feed; each batch applies exactly once and every replica
// converges to the owner's anchors. Forwards reuse streams: the node dials
// each peer far fewer times than it forwards. The pool caps idle streams,
// not streams in use, so overlapping forwards, tail polls, heartbeats and
// status calls may dial a few more than the cap; once they are done, at most
// the cap stay idle per peer.
func TestClusterHopsRideStreams(t *testing.T) {
	const (
		idle    = 4
		batches = 200
	)
	var dialsMu sync.Mutex
	dials := map[string]int{}
	var d net.Dialer
	counting := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: idle,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dialsMu.Lock()
			dials[addr]++
			dialsMu.Unlock()
			return d.DialContext(ctx, network, addr)
		},
	}}
	const feed = "hops"
	var nodes []*testClusterNode
	for {
		// The dial-counting node must not be the feed's owner: start
		// clusters until the ring places the feed elsewhere.
		nodes = startTestClusterOpts(t, 3, func(i int, o *cluster.Options) {
			if i == 0 {
				o.HTTP = counting
			}
		}, nil)
		if nodes[0].node.PlaceFeed(feed) != nodes[0].url {
			break
		}
		for _, tn := range nodes {
			tn.kill()
		}
	}
	c := NewClient(nodes[0].url)
	c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	if err := c.CreateFeed(FeedConfig{ID: feed, Shards: 1, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, feed, 5*time.Second)
	if oi == 0 {
		t.Fatal("the dial-counting node owns the feed")
	}
	owner := nodes[oi]
	frames := owner.g.streams.frames.Value()
	for i := range batches {
		if _, err := c.Do(feed, writeBatch(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if got := owner.g.streams.frames.Value() - frames; got < batches {
		t.Errorf("owner answered %v frames during %d forwarded batches, want >= %d", got, batches, batches)
	}
	if st, err := owner.g.Stats(feed); err != nil || st.Batches != batches || st.Ops != batches {
		t.Errorf("owner applied %d batches of %d ops (%v), want %d of 1 each", st.Batches, st.Ops, err, batches)
	}
	waitAnchorsEqual(t, nodes, feed, 10*time.Second)
	dialsMu.Lock()
	defer dialsMu.Unlock()
	for _, tn := range nodes[1:] {
		n := dials[strings.TrimPrefix(tn.url, "http://")]
		t.Logf("node 0 dialed %s %d times", tn.url, n)
		if n < 1 || n > batches/10 {
			t.Errorf("node 0 dialed %s %d times for %d forwarded batches, want 1..%d: forwards reuse streams", tn.url, n, batches, batches/10)
		}
		if got := nodes[0].node.Client().Idle(tn.url); got > idle {
			t.Errorf("node 0 holds %d idle streams to %s, want at most %d", got, tn.url, idle)
		}
	}
}

// TestClusterForwardAfterSilentDisconnect: when the owner's end of the idle
// streams a non-owner forwards over closes without GOAWAY (a crash, a
// dropped connection), a forwarded batch that meets the dead stream is never
// resent: a zero-Retry client gets the 502 and the batch is not applied (a
// heartbeat that met the dead stream first lets the batch through), while a
// client with a Retry budget lands it exactly once.
func TestClusterForwardAfterSilentDisconnect(t *testing.T) {
	const feed = "cut"
	nodes := startTestCluster(t, 2)
	retrying := NewClient(nodes[0].url)
	retrying.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	if err := retrying.CreateFeed(FeedConfig{ID: feed, Shards: 1, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, feed, 5*time.Second)
	owner, entry := nodes[oi], nodes[1-oi].url
	retrying.BaseURL = entry
	landed := 0
	for i := range 4 {
		c := NewClient(entry)
		if i%2 == 1 {
			c = retrying
		}
		_, err := c.Do(feed, writeBatch(fmt.Sprintf("k%d", i)))
		switch {
		case err == nil:
			landed++
		case c == retrying || !strings.Contains(err.Error(), "forward to owner"):
			t.Fatalf("batch %d (retrying %v): %v", i, c == retrying, err)
		}
		cutStreams(t, owner.g)
	}
	t.Logf("%d of 4 batches landed", landed)
	if st, err := owner.g.Stats(feed); err != nil || int(st.Batches) != landed {
		t.Errorf("owner applied %d batches (%v), want %d: each landed batch once, no other", st.Batches, err, landed)
	}
}

// TestClusterPeersSendOnlyStreamOffers: no hop between Go processes sends a
// route-shaped HTTP request. Every HTTP request a 3-node cluster's members
// receive, through heartbeats, a tail, forwarded writes, the federated
// /cluster/metrics and /cluster/load scrapes and server.Client's calls, is
// GET /stream offering the stream; every request after it is a frame.
func TestClusterPeersSendOnlyStreamOffers(t *testing.T) {
	const feed = "frames"
	var mu sync.Mutex
	var requests []string
	nodes := make([]*testClusterNode, 3)
	urls := make([]string, len(nodes))
	lns := make([]net.Listener, len(nodes))
	for i := range nodes {
		lns[i] = listenLocal(t)
		urls[i] = "http://" + lns[i].Addr().String()
	}
	for i, ln := range lns {
		g := NewGateway()
		node, err := cluster.NewNode(testNodeOptions(urls[i], urls, g))
		if err != nil {
			t.Fatal(err)
		}
		h := NewHandlerConfig(g, HandlerConfig{Cluster: node})
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			requests = append(requests, r.Method+" "+r.URL.RequestURI()+" Upgrade: "+r.Header.Get("Upgrade"))
			mu.Unlock()
			h.ServeHTTP(w, r)
		})}
		go srv.Serve(ln)
		node.Start()
		nodes[i] = &testClusterNode{g: g, node: node, srv: srv, url: urls[i]}
		t.Cleanup(nodes[i].kill)
	}
	c := NewClient(nodes[0].url)
	c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	if err := c.CreateFeed(FeedConfig{ID: feed, Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, feed, 5*time.Second)
	c.BaseURL = nodes[(oi+1)%len(nodes)].url // a non-owner: every batch is forwarded
	for i := range 10 {
		if _, err := c.Do(feed, writeBatch(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitAnchorsEqual(t, nodes, feed, 10*time.Second) // the tails caught up
	if res, err := c.Get(feed, "k3"); err != nil || !res.Found {
		t.Fatalf("get on a tailing node = %+v, %v", res, err)
	}
	var peer stream.Pool
	defer peer.Close()
	for _, rt := range []stream.Route{stream.RouteClusterMetrics, stream.RouteClusterLoad} {
		ans, err := peer.Send(nil, nodes[0].url, &stream.Request{Route: rt})
		if err != nil || ans.Status != http.StatusOK {
			t.Fatalf("%s: %d, %v", rt.Pattern(), ans.Status, err)
		}
		ans.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	want := "GET " + stream.Path + " Upgrade: " + stream.Proto
	t.Logf("%d streams opened", len(requests))
	for _, r := range requests {
		if r != want {
			t.Errorf("a member received %q, want only %q", r, want)
		}
	}
	if len(requests) < len(nodes) {
		t.Errorf("%d requests received, want at least one stream per member", len(requests))
	}
}
