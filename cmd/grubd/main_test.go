package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/server"
)

func TestServeRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan net.Addr, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0"}, &buf,
			func(a net.Addr) { ready <- a }, stop)
	}()
	addr := <-ready

	c := server.NewClient("http://" + addr.String())
	if err := c.CreateFeed(server.FeedConfig{ID: "t", EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	results, err := c.Do("t", []server.Op{
		{Type: "write", Key: "k", Value: []byte("v")},
		{Type: "write", Key: "k2", Value: []byte("v2")},
		{Type: "read", Key: "k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || !results[2].Found || string(results[2].Value) != "v" {
		t.Errorf("roundtrip results = %+v", results)
	}
	st, err := c.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 3 || st.Feed.FeedGas == 0 {
		t.Errorf("stats = %+v", st)
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("listening")) {
		t.Errorf("banner missing: %q", buf.String())
	}
}

// TestGracefulSignalShutdown sends a real SIGINT to the test process once
// the daemon is serving: the signal handler (not the Go runtime default)
// must catch it, drain the gateway and make run return nil — the wiring
// that lets a deployed grubd exit 0 on ctrl-C or SIGTERM.
func TestGracefulSignalShutdown(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0"}, &buf,
			func(a net.Addr) { ready <- a }, nil)
	}()
	addr := <-ready

	// Real traffic before the signal, so the drain has feeds to close.
	c := server.NewClient("http://" + addr.String())
	if err := c.CreateFeed(server.FeedConfig{ID: "t", Shards: 2, EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("t", []server.Op{{Type: "write", Key: "k", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGINT")
	}
	if !bytes.Contains(buf.Bytes(), []byte("draining")) {
		t.Errorf("drain banner missing: %q", buf.String())
	}
	// The listener is released: new connections are refused.
	if _, err := c.Feeds(); err == nil {
		t.Error("gateway still serving after shutdown")
	}
}

// TestDataDirSurvivesRestart drives the full daemon durability loop: serve
// with -data-dir, load a feed, shut down gracefully (drain-then-flush),
// start a second daemon on the same directory and find the feed recovered —
// same keys, same stats.
func TestDataDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	start := func() (*server.Client, chan struct{}, chan error, *bytes.Buffer) {
		var buf bytes.Buffer
		ready := make(chan net.Addr, 1)
		stop := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-snapshot-every", "2"}, &buf,
				func(a net.Addr) { ready <- a }, stop)
		}()
		addr := <-ready
		return server.NewClient("http://" + addr.String()), stop, errc, &buf
	}

	c1, stop1, errc1, _ := start()
	if err := c1.CreateFeed(server.FeedConfig{ID: "t", Shards: 2, EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Do("t", []server.Op{
		{Type: "write", Key: "k", Value: []byte("v")},
		{Type: "read", Key: "k"},
	}); err != nil {
		t.Fatal(err)
	}
	before, err := c1.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	close(stop1)
	if err := <-errc1; err != nil {
		t.Fatalf("first daemon: %v", err)
	}

	c2, stop2, errc2, buf2 := start()
	defer func() {
		close(stop2)
		<-errc2
	}()
	results, err := c2.Do("t", []server.Op{{Type: "read", Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Found || string(results[0].Value) != "v" {
		t.Fatalf("recovered read = %+v, want k=v", results)
	}
	after, err := c2.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	// One extra read executed since the snapshot; everything before it must
	// carry over exactly.
	if after.Ops != before.Ops+1 || after.Feed.Delivered != before.Feed.Delivered+1 {
		t.Errorf("stats did not carry over: before %+v after %+v", before, after)
	}
	if !regexp.MustCompile(`persisting feeds under \S+ \(1 recovered in \d+\.\d ms\)`).Match(buf2.Bytes()) {
		t.Errorf("persistence banner missing or without recovery time: %q", buf2.String())
	}
}

// TestSlowHeadersDisconnected: a client that sends half a request line and
// stalls is disconnected once the header timeout passes, on the API
// listener and on the pprof listener alike.
func TestSlowHeadersDisconnected(t *testing.T) {
	headerTimeout = 100 * time.Millisecond
	t.Cleanup(func() { headerTimeout = readHeaderTimeout })
	var buf bytes.Buffer
	ready := make(chan net.Addr, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"},
			&buf, func(a net.Addr) { ready <- a }, stop)
	}()
	addr := (<-ready).String()
	m := regexp.MustCompile(`pprof listening on http://([^/\s]+)/`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("pprof banner missing: %q", buf.String())
	}
	for _, a := range []string{addr, m[1]} {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
			t.Fatal(err)
		}
		// Well past the header timeout but far short of the default: only
		// the server closing the connection ends this read in time.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = io.ReadAll(conn)
		conn.Close()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: connection with a stalled request line still open after 5s", a)
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestBadAddr(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-addr", "256.256.256.256:0"}, &buf, nil, nil); err == nil {
		t.Fatal("bad addr accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := "grubd " + server.Version + "\n"
	if buf.String() != want {
		t.Errorf("-version printed %q, want %q", buf.String(), want)
	}
}

// TestObservabilityFlags starts a daemon with -slow-ms and -debug-addr:
// the pprof index must serve on the separate debug listener (and only
// there), and the slow-op banner must announce the threshold. The slow-op
// log itself goes to stderr, so its content is pinned at the server layer.
func TestObservabilityFlags(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan net.Addr, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-slow-ms", "1", "-debug-addr", "127.0.0.1:0"},
			&buf, func(a net.Addr) { ready <- a }, stop)
	}()
	addr := <-ready

	// Banners are flushed before onReady fires, so reading buf here does
	// not race with the serve goroutine.
	banner := buf.String()
	if !strings.Contains(banner, "logging batches slower than 1ms") {
		t.Errorf("slow-op banner missing: %q", banner)
	}
	m := regexp.MustCompile(`pprof listening on http://([^/\s]+)/`).FindStringSubmatch(banner)
	if m == nil {
		t.Fatalf("pprof banner missing: %q", banner)
	}
	resp, err := http.Get("http://" + m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug listener /debug/pprof/ = HTTP %d, want 200", resp.StatusCode)
	}
	// The public API port must not expose the profiling surface.
	resp, err = http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof exposed on the public API listener")
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
}

// TestFollowerMode runs a leader and a follower daemon end to end: the
// follower mirrors the leader's feed, serves it read-only (403 + Leader
// header on writes, which the client auto-follows), and reports its
// replication health on /repl/status.
func TestFollowerMode(t *testing.T) {
	leaderReady := make(chan net.Addr, 1)
	leaderStop := make(chan struct{})
	leaderErr := make(chan error, 1)
	var leaderBuf, followerBuf bytes.Buffer
	go func() {
		leaderErr <- run([]string{"-addr", "127.0.0.1:0"}, &leaderBuf,
			func(a net.Addr) { leaderReady <- a }, leaderStop)
	}()
	leaderURL := "http://" + (<-leaderReady).String()

	followerReady := make(chan net.Addr, 1)
	followerStop := make(chan struct{})
	followerErr := make(chan error, 1)
	go func() {
		followerErr <- run([]string{"-addr", "127.0.0.1:0", "-follow", leaderURL}, &followerBuf,
			func(a net.Addr) { followerReady <- a }, followerStop)
	}()
	followerURL := "http://" + (<-followerReady).String()

	leaderC := server.NewClient(leaderURL)
	if err := leaderC.CreateFeed(server.FeedConfig{ID: "f", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := leaderC.Do("f", []server.Op{{Type: "write", Key: "k", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}

	// The follower replicates the feed and serves a verified read.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := server.NewVerifyingClient(followerURL).Get("f", "k")
		if err == nil && res.Found && string(res.Record.Value) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served the replicated write (last err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A write pointed at the follower lands on the leader via the Leader
	// redirect.
	if _, err := server.NewClient(followerURL).Do("f", []server.Op{{Type: "write", Key: "k2", Value: []byte("v2")}}); err != nil {
		t.Fatalf("auto-followed write failed: %v", err)
	}

	close(followerStop)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower returned: %v", err)
	}
	close(leaderStop)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader returned: %v", err)
	}
	if !bytes.Contains(followerBuf.Bytes(), []byte("following leader")) {
		t.Errorf("follower banner missing: %q", followerBuf.String())
	}
}

// TestClusterMode boots a 2-node cluster via -join: both daemons must
// banner as cluster nodes, report an enabled quorate cluster on
// /cluster/status, and route a write from either node to the feed's owner.
func TestClusterMode(t *testing.T) {
	// Reserve two ports so each node can name the other in -join before
	// either is listening.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	urls := []string{"http://" + addrs[0], "http://" + addrs[1]}

	bufs := make([]bytes.Buffer, 2)
	stops := make([]chan struct{}, 2)
	errcs := make([]chan error, 2)
	for i := range addrs {
		stops[i] = make(chan struct{})
		errcs[i] = make(chan error, 1)
		ready := make(chan net.Addr, 1)
		go func(i int) {
			errcs[i] <- run([]string{"-addr", addrs[i], "-join", urls[1-i]}, &bufs[i],
				func(a net.Addr) { ready <- a }, stops[i])
		}(i)
		<-ready
	}

	// Both nodes report an enabled cluster with 2 members, all alive.
	cc := &cluster.Client{}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range urls {
		for {
			st, err := cc.Status(u)
			if err == nil && st.Enabled && st.Quorum && len(st.Members) == 2 &&
				st.Members[0].Alive && st.Members[1].Alive {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s cluster status never became quorate (last %+v, err %v)", u, st, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Create on node 0, write through node 1: the cluster routes both to
	// the owner, wherever the ring placed the feed.
	c0 := server.NewClient(urls[0])
	c0.Retry = server.DefaultRetry
	if err := c0.CreateFeed(server.FeedConfig{ID: "cf", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	c1 := server.NewClient(urls[1])
	c1.Retry = server.DefaultRetry
	// Node 1 learns where "cf" lives from node 0's next placement
	// heartbeat; until it arrives the write is refused as "unknown feed"
	// (nothing applied), so it is polled like the reads below.
	deadline = time.Now().Add(30 * time.Second)
	for {
		_, err := c1.Do("cf", []server.Op{{Type: "write", Key: "k", Value: []byte("v")}})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write via second node: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both nodes eventually serve the verified read locally.
	for _, u := range urls {
		for {
			res, err := server.NewVerifyingClient(u).Get("cf", "k")
			if err == nil && res.Found && string(res.Record.Value) == "v" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never served the write (last err %v)", u, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for i := range stops {
		close(stops[i])
		if err := <-errcs[i]; err != nil {
			t.Fatalf("node %d returned: %v", i, err)
		}
		if !bytes.Contains(bufs[i].Bytes(), []byte("cluster node")) {
			t.Errorf("node %d cluster banner missing: %q", i, bufs[i].String())
		}
	}
}

// TestJoinFollowExclusive: -follow and -join cannot be combined.
func TestJoinFollowExclusive(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:0", "-join", "http://a", "-follow", "http://b"}, &buf, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
}
