package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/stream"
)

// streamGateway serves a fresh in-memory gateway holding feed "f" through srv
// (an http.Server whose Handler it sets) on a loopback port. The client it
// returns has a Transport of its own that counts the connections it dials.
func streamGateway(tb testing.TB, srv *http.Server, hc HandlerConfig, cfg FeedConfig) (*Gateway, *Client, *atomic.Int64) {
	tb.Helper()
	g := NewGateway()
	tb.Cleanup(g.Close)
	if err := g.CreateFeed(cfg); err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv.Handler = NewHandlerConfig(g, hc)
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	c, dials := dialCounting("http://" + ln.Addr().String())
	return g, c, dials
}

// wrapRoute wraps the handler a serves route rt with, for HTTP requests and
// stream frames alike.
func wrapRoute(a *api, rt stream.Route, wrap func(func(*api, *call, *reply)) func(*api, *call, *reply)) {
	a.serve[rt] = wrap(a.serve[rt])
}

// dialCounting returns a client for baseURL whose Transport counts its dials.
func dialCounting(baseURL string) (*Client, *atomic.Int64) {
	dials := new(atomic.Int64)
	var d net.Dialer
	c := NewClient(baseURL)
	c.HTTP = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c, dials
}

// waitFor polls cond for up to 3s.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
	}
}

func writeBatch(keys ...string) []Op {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Type: "write", Key: k, Value: []byte("v-" + k)}
	}
	return ops
}

// TestStreamSharesOneConnection: a client's batches, verified reads and JSON
// calls all cross one stream, one frame each.
func TestStreamSharesOneConnection(t *testing.T) {
	g, c, dials := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f", Shards: 2, EpochOps: 1})
	calls := []func() error{
		func() error { _, err := c.Do("f", writeBatch("a", "b", "c")); return err },
		func() error {
			res, err := c.Get("f", "a")
			if err == nil && (!res.Found || string(res.Record.Value) != "v-a") {
				err = fmt.Errorf("get a = %+v", res)
			}
			return err
		},
		func() error { _, err := c.Range("f", "a", "c"); return err },
		func() error { _, err := c.Stats("f"); return err },
		func() error { _, err := c.Feeds(); return err },
		func() error { return c.CreateFeed(FeedConfig{ID: "g"}) },
		func() error { _, err := c.Roots("f"); return err },
	}
	for i, call := range calls {
		if err := call(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d connections dialed, want 1", n)
	}
	if got := g.streams.frames.Value(); got != float64(len(calls)) {
		t.Errorf("%v requests answered over the stream, want %d", got, len(calls))
	}
	if got := g.streams.opened.Value(); got != 1 {
		t.Errorf("grub_streams_open = %v, want 1", got)
	}
}

// TestStreamConcurrentCallers: callers sharing one client each get a stream
// of their own, and every answer is the right one.
func TestStreamConcurrentCallers(t *testing.T) {
	const callers, rounds = 8, 40
	g, c, dials := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f", Shards: 4, EpochOps: 1})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := range callers {
		// One verifier per caller, all on the one client: a pin shared
		// across callers would race their reads against each other's writes.
		vc := NewVerifyingClient(c.BaseURL)
		vc.Client = c
		if _, err := vc.Get("f", "none"); err != nil { // pins the anchors
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range rounds {
				key := fmt.Sprintf("c%d-%02d", i, j)
				res, err := c.Do("f", writeBatch(key))
				if err == nil && (len(res) != 1 || res[0].Key != key || res[0].Err != "") {
					err = fmt.Errorf("write %s = %+v", key, res)
				}
				if err != nil {
					errs <- err
					return
				}
				got, err := vc.Get("f", key)
				if err == nil && (!got.Found || got.Key != key || string(got.Record.Value) != "v-"+key) {
					err = fmt.Errorf("get %s = %+v", key, got)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := dials.Load(); n < 2 || n > callers {
		t.Errorf("%d connections for %d concurrent callers, want 2..%d", n, callers, callers)
	}
	if got, want := g.streams.frames.Value(), float64(2*callers+2*callers*rounds); got != want {
		t.Errorf("%v requests answered over streams, want all %v", got, want)
	}
}

// TestStreamGatewayRestartGoaway: a gateway closed under an idle stream sends
// GOAWAY, so a client with no retry budget sends its next batch again on a
// fresh connection, to the gateway restarted at the same address, which
// applies it exactly once.
func TestStreamGatewayRestartGoaway(t *testing.T) {
	cfg := FeedConfig{ID: "f", EpochOps: 1}
	serve := func(ln net.Listener) (*Gateway, *http.Server) {
		g := NewGateway()
		if err := g.CreateFeed(cfg); err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: NewHandler(g)}
		go srv.Serve(ln)
		return g, srv
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g1, srv1 := serve(ln)
	c, dials := dialCounting("http://" + ln.Addr().String())
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	if got := g1.streams.opened.Value(); got != 1 {
		t.Fatalf("grub_streams_open = %v, want 1", got)
	}
	srv1.Close() // leaves the hijacked stream open
	g1.Close()   // sends it GOAWAY
	waitFor(t, "the stream to close", func() bool { return g1.streams.opened.Value() == 0 })

	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	g2, srv2 := serve(ln2)
	defer func() { srv2.Close(); g2.Close() }()
	if _, err := c.Do("f", writeBatch("b")); err != nil {
		t.Fatalf("batch after the restart: %v", err)
	}
	st, err := g2.Stats("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Ops != 1 {
		t.Errorf("restarted gateway applied %d batches (%d ops), want exactly 1", st.Batches, st.Ops)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2", n)
	}
}

// TestStreamCloseAnswersInFlightBatch: a gateway closed while a stream is
// serving a batch answers it before its feeds stop, so the client gets that
// batch's answer, and the batch is applied exactly once.
func TestStreamCloseAnswersInFlightBatch(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.CreateFeed(FeedConfig{ID: "f", EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(g).(*api)
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	wrapRoute(h, stream.RouteOps, func(serve func(*api, *call, *reply)) func(*api, *call, *reply) {
		return func(a *api, c *call, rep *reply) {
			if hold.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
			serve(a, c, rep)
		}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	var res []OpResult
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = c.Do("f", writeBatch("b"))
		done <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a stream was serving a batch")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil || len(res) != 1 || res[0].Err != "" {
		t.Fatalf("batch in flight across Close = %+v, %v; want its answer", res, err)
	}
	<-closed
	g2, err := NewGatewayWithOptions(GatewayOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if st, err := g2.Stats("f"); err != nil || st.Ops != 2 {
		t.Errorf("recovered %d ops (%v), want 2: each batch applied once", st.Ops, err)
	}
}

// cutStreams closes g's end of every stream it holds, without GOAWAY, waits
// for them to end, and returns how many there were.
func cutStreams(t *testing.T, g *Gateway) int {
	t.Helper()
	g.streams.mu.Lock()
	cut := maps.Clone(g.streams.open)
	g.streams.mu.Unlock()
	for s := range cut {
		s.conn.Close()
	}
	waitFor(t, "the streams to end", func() bool {
		g.streams.mu.Lock()
		defer g.streams.mu.Unlock()
		for s := range cut {
			if g.streams.open[s] {
				return false
			}
		}
		return true
	})
	return len(cut)
}

// TestStreamGetAfterSilentDisconnect: when the gateway end of an idle stream
// closes without GOAWAY (a crash, a dropped idle connection), a zero-Retry Get
// goes again on a fresh connection, since no byte of its answer came. A batch
// on such a stream is a transport error, never resent.
func TestStreamGetAfterSilentDisconnect(t *testing.T) {
	g, c, dials := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f", EpochOps: 1})
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	cut := func() { cutStreams(t, g) }
	cut()
	if res, err := c.Get("f", "a"); err != nil || !res.Found {
		t.Fatalf("get on a silently closed stream = %+v, %v; want the record", res, err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2", n)
	}
	cut()
	if _, err := c.Do("f", writeBatch("b")); err == nil {
		t.Error("batch on a silently closed stream succeeded: it was resent")
	}
	if st, _ := g.Stats("f"); st.Batches != 1 {
		t.Errorf("%d batches applied, want 1", st.Batches)
	}
}

// TestStreamIdleTimeoutGoaway: a stream idle past the server's IdleTimeout
// ends with GOAWAY, and the client's next batch goes once over a fresh one.
func TestStreamIdleTimeoutGoaway(t *testing.T) {
	g, c, dials := streamGateway(t, &http.Server{IdleTimeout: 50 * time.Millisecond}, HandlerConfig{}, FeedConfig{ID: "f"})
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the idle stream to close", func() bool { return g.streams.opened.Value() == 0 })
	if _, err := c.Do("f", writeBatch("b")); err != nil {
		t.Fatalf("batch after the idle timeout: %v", err)
	}
	if st, _ := g.Stats("f"); st.Batches != 2 {
		t.Errorf("%d batches applied, want 2", st.Batches)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2", n)
	}
}

// TestStreamTimeoutBoundsStalledAnswer: Client.HTTP.Timeout bounds each
// exchange on a stream, not the stream's life: an idle stream outlives it,
// a stalled answer does not.
func TestStreamTimeoutBoundsStalledAnswer(t *testing.T) {
	var stall atomic.Bool
	hc := HandlerConfig{TamperQuery: func(any) {
		if stall.Load() {
			time.Sleep(2 * time.Second)
		}
	}}
	_, c, dials := streamGateway(t, &http.Server{}, hc, FeedConfig{ID: "f", EpochOps: 1})
	c.HTTP.Timeout = 200 * time.Millisecond
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := c.Get("f", "a"); err != nil {
		t.Fatalf("get on a stream idle past the timeout: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1 stream for both calls", n)
	}
	stall.Store(true)
	start := time.Now()
	_, err := c.Get("f", "a")
	if took := time.Since(start); err == nil || took > time.Second {
		t.Fatalf("stalled get returned %v after %v, want an error within the 200ms timeout", err, took)
	}
	stall.Store(false)
	if _, err := c.Get("f", "a"); err != nil {
		t.Fatalf("get after the timeout: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2: the stalled stream is not reused", n)
	}
}

// TestStreamOversizeFrame: a request frame past the body cap gets a 413, and
// the stream then closes; the client's next batch goes over a fresh one.
func TestStreamOversizeFrame(t *testing.T) {
	g, c, dials := streamGateway(t, &http.Server{}, HandlerConfig{MaxBodyBytes: 4096}, FeedConfig{ID: "f"})
	if _, err := c.Do("f", writeBatch("a")); err != nil {
		t.Fatal(err)
	}
	big := []Op{{Type: "write", Key: "big", Value: make([]byte, 8<<10)}}
	if _, err := c.Do("f", big); err == nil || !strings.Contains(err.Error(), "exceeds 4096 bytes") {
		t.Fatalf("oversize batch: %v, want the 413's error", err)
	}
	waitFor(t, "the stream to close", func() bool { return g.streams.opened.Value() == 0 })
	if _, err := c.Do("f", writeBatch("b")); err != nil {
		t.Fatalf("batch after the 413: %v", err)
	}
	if st, _ := g.Stats("f"); st.Batches != 2 {
		t.Errorf("%d batches applied, want 2", st.Batches)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2", n)
	}
}

// TestStreamFallsBackToHTTP: a handler wrapped in a ResponseWriter that cannot
// hijack falls back to an HTTP answer: it refuses the offer with 500, counts
// no frame, and the client's error names the gateway and the status.
func TestStreamFallsBackToHTTP(t *testing.T) {
	g, _, _ := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f"})
	h := NewHandler(g)
	hidden := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r) // hides Hijack
	}))
	defer hidden.Close()
	refusedOffer(t, NewClient(hidden.URL), "500")
	if got := g.streams.frames.Value(); got != 0 {
		t.Errorf("%v requests answered over streams, want 0", got)
	}
}

// TestStreamOtherVersionServedOverHTTP: an offer at GET /stream of another
// version, as a peer of another build sends, or with no Upgrade header at
// all, is answered over HTTP with 426 naming the version the gateway takes;
// an offer carried on a route's own request, as a grub-stream/3 client
// sends, is served over plain HTTP. No connection is taken over and no frame
// is counted.
func TestStreamOtherVersionServedOverHTTP(t *testing.T) {
	g, c, _ := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f"})
	offer := func(path, proto string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if proto != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", proto)
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for _, proto := range []string{"", "grub-stream/1", "grub-stream/3"} {
		resp := offer(stream.Path, proto)
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != stream.Proto {
			t.Errorf("offer of %q answered %d with Upgrade %q, want 426 with %s", proto, resp.StatusCode, resp.Header.Get("Upgrade"), stream.Proto)
		}
	}
	for _, proto := range []string{"grub-stream/3", stream.Proto} {
		resp := offer("/feeds/f/stats", proto)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("stats route offering %s answered %d %q, want 200 application/json", proto, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}
	if got := g.streams.frames.Value(); got != 0 {
		t.Errorf("%v requests answered over streams, want 0", got)
	}
}

// TestStreamOfferRefusedOverHTTP: an offer to a draining gateway is refused
// 503 over plain HTTP and counts no frame, and a client refused so gets an
// error that names the gateway and the status. The other refusals are
// TestStreamOtherVersionServedOverHTTP (426) and TestStreamFallsBackToHTTP
// (500); a frame past the body cap gets its 413 as a frame:
// TestStreamOversizeFrame.
func TestStreamOfferRefusedOverHTTP(t *testing.T) {
	g, c, _ := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f"})
	g.Close() // drains
	refusedOffer(t, c, "503")
	if got := g.streams.frames.Value(); got != 0 {
		t.Errorf("%v requests answered over streams, want 0", got)
	}
}

// refusedOffer checks that a request from c fails with an error naming c's
// gateway and the refusal's status.
func refusedOffer(t *testing.T, c *Client, status string) {
	t.Helper()
	if _, err := c.Stats("f"); err == nil || !strings.Contains(err.Error(), c.BaseURL) || !strings.Contains(err.Error(), status) {
		t.Errorf("Stats through a refused offer: %v, want an error naming %s and %s", err, c.BaseURL, status)
	}
}

// TestRouteTableRegistersEveryRoute: every route of the stream package's
// table has a handler, and a plain HTTP request for it reaches the mux under
// that route's pattern; GET /stream is the one other route the mux holds.
func TestRouteTableRegistersEveryRoute(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	a := NewHandler(g).(*api)
	reaches := func(pattern string) string {
		method, path, _ := strings.Cut(pattern, " ")
		path = strings.NewReplacer("{id}", "a%2Fb%20c", "{shard}", "3").Replace(path)
		_, got := a.Handler(httptest.NewRequest(method, path, nil))
		return got
	}
	for rt := stream.Route(1); rt < stream.NumRoutes; rt++ {
		if got := reaches(rt.Pattern()); got != rt.Pattern() || a.serve[rt] == nil {
			t.Errorf("route %d (%s) reaches pattern %q, handler %v", rt, rt.Pattern(), got, a.serve[rt] != nil)
		}
	}
	if open := http.MethodGet + " " + stream.Path; reaches(open) != open {
		t.Errorf("%s is not registered", open)
	}
}

// TestJSONRouteAllocations pins what a JSON route costs, client and gateway
// together, on a stream that has served it before.
func TestJSONRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const bound = 13
	_, c, _ := streamGateway(t, &http.Server{}, HandlerConfig{}, FeedConfig{ID: "f"})
	stats := func() {
		if _, err := c.Stats("f"); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		stats()
	}
	allocs := testing.AllocsPerRun(200, stats)
	t.Logf("%.1f allocations per Stats", allocs)
	if allocs > bound {
		t.Errorf("%.1f allocations per Stats, want at most %d", allocs, bound)
	}
}

// FuzzStreamFrame: arbitrary bytes sent on a gateway's stream once it opens
// are answered frame by frame, in order: every whole frame once (a
// 400 when it does not decode to a request), a frame past the body cap with
// a 413 and then GOAWAY. The stream ends when the client stops writing; the
// gateway never hangs or panics. The frame codec itself is fuzzed in package
// stream.
func FuzzStreamFrame(f *testing.F) {
	const maxBody = 4096
	withLen := func(p []byte) []byte { return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...) }
	req := stream.AppendRequest(nil, &stream.Request{Route: stream.RouteOps, Feed: "f", Flags: stream.JSONBody,
		Body: []byte(`{"ops":[{"type":"write","key":"k","value":"dg=="}]}`)})
	stats := stream.AppendRequest(nil, &stream.Request{Route: stream.RouteStats, Feed: "f"})
	f.Add(req)
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteOps, Feed: "f", Body: core.AppendOps(nil, writeBatch("k"))}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteOps, Feed: "f", Flags: stream.JSONBody | stream.JSONAnswer, TraceID: "t", Body: []byte(`{"ops":[]}`)}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteGet, Feed: "f", Key: "k", Flags: stream.JSONAnswer}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteRange, Feed: "f", Lo: "a", Hi: "z"}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteLog, Feed: "f", Max: 4}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteCreateFeed, Body: []byte(`{"id":"g"}`)}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.RouteReplSnapshot, Feed: "f", Shard: 0}))
	f.Add(stream.AppendRequest(nil, &stream.Request{Route: stream.NumRoutes - 1, Feed: "f", Body: []byte(`{"target":"http://b"}`)}))
	f.Add(withLen([]byte{0, 1, 'f', 0, 0, 0, 0}))                                                        // route 0
	f.Add(withLen([]byte{byte(stream.NumRoutes), 1, 'f', 0, 0, 0, 0}))                                   // unknown route
	f.Add(append(stream.AppendAnswer(nil, &stream.Head{Status: 200, Leader: "http://a"}, 4), "body"...)) // an answer as a request
	f.Add(req[:len(req)-3])                                                                              // truncated
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<31), byte(stream.RouteStats), 1, 'f'))            // oversize length
	f.Add(withLen([]byte{byte(stream.RouteStats), 0x81, 0x00, 'f', 0, 0, 0, 0}))                         // non-minimal string length
	f.Add(append(stats, stats...))                                                                       // two requests back to back
	f.Add([]byte(stream.Goaway))                                                                         // an empty request
	g := NewGateway()
	f.Cleanup(g.Close)
	if err := g.CreateFeed(FeedConfig{ID: "f"}); err != nil {
		f.Fatal(err)
	}
	h := NewHandlerConfig(g, HandlerConfig{MaxBodyBytes: maxBody})
	var active, panics atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer func() {
			if recover() != nil {
				panics.Add(1)
			}
			active.Add(-1)
		}()
		h.ServeHTTP(w, r)
	}))
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The answers data must get: 400 for a whole frame that is not a
		// request, 0 for one that is (any status), then 413 for an oversize
		// frame, after which nothing is read.
		var want []int
		for rest := data; len(rest) >= 4; {
			n := int(binary.BigEndian.Uint32(rest))
			if n > maxBody {
				want = append(want, http.StatusRequestEntityTooLarge)
				break
			}
			if len(rest) < 4+n {
				break
			}
			var r stream.Request
			if stream.DecodeRequest(rest[4:4+n], &r) != nil {
				want = append(want, http.StatusBadRequest)
			} else {
				want = append(want, 0)
			}
			rest = rest[4+n:]
		}
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: gw\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", stream.Path, stream.Proto)
		br := bufio.NewReader(conn)
		if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("offer answered %v, %v", resp, err)
		}
		conn.Write(data)
		conn.(*net.TCPConn).CloseWrite()
		var got []int
		goaway := false
		for {
			p, err := stream.ReadFrame(br, math.MaxInt64)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("after %d answers: %v", len(got), err)
			}
			if goaway = len(*p) == 0; !goaway {
				hd, _, err := stream.DecodeAnswer(*p)
				if err != nil {
					t.Fatalf("answer %d does not decode: %v", len(got), err)
				}
				got = append(got, hd.Status)
			}
			stream.PutBuf(p)
			if goaway {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d answers %v to %d frames, want %v", len(got), got, len(want), want)
		}
		for i, w := range want {
			if w != 0 && got[i] != w {
				t.Fatalf("answer %d is %d, want %d (all: %v)", i, got[i], w, got)
			}
		}
		if tooLarge := len(want) > 0 && want[len(want)-1] == http.StatusRequestEntityTooLarge; goaway != tooLarge {
			t.Fatalf("GOAWAY %v after answers %v", goaway, got)
		}
		waitFor(t, "the stream's handler to return", func() bool { return active.Load() == 0 })
		if panics.Load() > 0 {
			t.Fatal("the gateway panicked serving a stream")
		}
	})
}
