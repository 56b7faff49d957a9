package server

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"grub/internal/merkle"
	"grub/internal/query"
)

// readEncodings are the forms an authenticated read reaches a light client
// in: the Client reads binary only. The JSON form that curl gets is pinned
// by TestReadJSONGolden and checked against the binary one by
// TestClientReadsBothEncodings.
var readEncodings = []string{"binary"}

// readResponses reads grub_read_responses_total{route,encoding} off the
// gateway's registry.
func readResponses(g *Gateway, route, encoding string) float64 {
	return g.Metrics().NewCounterVec("grub_read_responses_total", "", "route", "encoding").With(route, encoding).Value()
}

// TestVerifiedReadsUnderWriteLoad is the authenticated read path's
// acceptance test: 32 concurrent VerifyingClient light clients issue point
// reads, absence queries and range scans against a sharded feed while a
// writer keeps mutating it, and every single proof must verify against the
// advertised, pinned roots. Run with -race this also pins the snapshot
// isolation of the published views against the shard workers.
func TestVerifiedReadsUnderWriteLoad(t *testing.T) {
	for _, enc := range readEncodings {
		t.Run(enc, func(t *testing.T) { testVerifiedReadsUnderWriteLoad(t, enc) })
	}
}

func testVerifiedReadsUnderWriteLoad(t *testing.T, enc string) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	const (
		feedID  = "hot"
		shards  = 4
		records = 48
		readers = 32
		reads   = 24
	)
	admin := NewClient(srv.URL)
	if err := admin.CreateFeed(FeedConfig{ID: feedID, Shards: shards, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, records)
	var preload []Op
	for i := range keys {
		keys[i] = fmt.Sprintf("user%03d", i)
		preload = append(preload, Op{Type: "write", Key: keys[i], Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := admin.Do(feedID, preload); err != nil {
		t.Fatal(err)
	}

	// Sustained write load: keeps epochs flushing and views republishing
	// (value updates, new keys, and deletions-by-overwrite churn).
	stopWrites := make(chan struct{})
	var writerErr atomic.Value
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for round := 0; ; round++ {
			select {
			case <-stopWrites:
				return
			default:
			}
			ops := make([]Op, 0, 8)
			for i := 0; i < 8; i++ {
				ops = append(ops, Op{
					Type:  "write",
					Key:   keys[(round*8+i)%len(keys)],
					Value: []byte(fmt.Sprintf("round%d", round)),
				})
			}
			if _, err := admin.Do(feedID, ops); err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()

	var rwg sync.WaitGroup
	errc := make(chan error, readers)
	for ri := 0; ri < readers; ri++ {
		rwg.Add(1)
		go func(ri int) {
			defer rwg.Done()
			vc := NewVerifyingClient(srv.URL)
			for i := 0; i < reads; i++ {
				key := keys[(ri*reads+i*7)%len(keys)]
				if i%5 == 4 {
					key = fmt.Sprintf("missing-%d-%d", ri, i) // absence proof
				}
				res, err := vc.Get(feedID, key)
				if err != nil {
					errc <- fmt.Errorf("reader %d get %q: %w", ri, key, err)
					return
				}
				if res.Shards != shards {
					errc <- fmt.Errorf("reader %d: %d shards advertised", ri, res.Shards)
					return
				}
				if i%8 == 7 {
					if _, err := vc.Range(feedID, "user010", "user030"); err != nil {
						errc <- fmt.Errorf("reader %d range: %w", ri, err)
						return
					}
				}
			}
			v, pb := vc.VerifiedStats()
			if v == 0 || pb == 0 {
				errc <- fmt.Errorf("reader %d verified nothing (v=%d bytes=%d)", ri, v, pb)
			}
		}(ri)
	}
	rwg.Wait()
	close(stopWrites)
	wwg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got := readResponses(g, "get", enc); got != readers*reads {
		t.Errorf("%v get responses counted as %s, want %d", got, enc, readers*reads)
	}
}

// TestTamperedGatewayRejected models a compromised gateway through the
// handler's TamperQuery hook: a flipped record byte, a truncated proof, an
// omitted range record and a replayed stale root must each be rejected by
// the VerifyingClient with ErrVerification.
func TestTamperedGatewayRejected(t *testing.T) {
	for _, enc := range readEncodings {
		t.Run(enc, func(t *testing.T) { testTamperedGatewayRejected(t, enc) })
	}
}

func testTamperedGatewayRejected(t *testing.T, enc string) {
	g := NewGateway()
	defer g.Close()

	var tamper atomic.Value // func(any)
	tamper.Store(func(any) {})
	srv := httptest.NewServer(NewHandlerConfig(g, HandlerConfig{
		TamperQuery: func(resp any) { tamper.Load().(func(any))(resp) },
	}))
	defer srv.Close()

	const feedID = "tampered"
	admin := NewClient(srv.URL)
	if err := admin.CreateFeed(FeedConfig{ID: feedID, Shards: 2, EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	var preload []Op
	for i := 0; i < 16; i++ {
		preload = append(preload, Op{Type: "write", Key: fmt.Sprintf("k%02d", i), Value: []byte("honest")})
	}
	if _, err := admin.Do(feedID, preload); err != nil {
		t.Fatal(err)
	}

	vc := NewVerifyingClient(srv.URL)
	// Honest baseline: everything verifies.
	if _, err := vc.Get(feedID, "k03"); err != nil {
		t.Fatalf("honest get rejected: %v", err)
	}
	if _, err := vc.Range(feedID, "k01", "k09"); err != nil {
		t.Fatalf("honest range rejected: %v", err)
	}

	mustReject := func(name string, f func() error) {
		t.Helper()
		err := f()
		if !errors.Is(err, ErrVerification) {
			t.Errorf("%s: want ErrVerification, got %v", name, err)
		}
	}

	// Flipped record byte.
	tamper.Store(func(resp any) {
		if gr, ok := resp.(*GetResponse); ok && gr.Result != nil && gr.Result.Record != nil {
			gr.Result.Record.Value[0] ^= 0x01
		}
	})
	mustReject("flipped record byte", func() error { _, err := vc.Get(feedID, "k03"); return err })

	// Truncated proof.
	tamper.Store(func(resp any) {
		if gr, ok := resp.(*GetResponse); ok && gr.Result != nil && gr.Result.Proof != nil {
			p := gr.Result.Proof
			p.Path = p.Path[:len(p.Path)-1]
		}
	})
	mustReject("truncated proof", func() error { _, err := vc.Get(feedID, "k03"); return err })

	// Omitted range record (the span proof no longer matches).
	tamper.Store(func(resp any) {
		if rr, ok := resp.(*RangeResponse); ok {
			for i := range rr.Results {
				if recs := rr.Results[i].Range.Records; len(recs) > 1 {
					rr.Results[i].Range.Records = recs[1:]
					return
				}
			}
		}
	})
	mustReject("omitted range record", func() error { _, err := vc.Range(feedID, "k01", "k09"); return err })

	// Stale root: capture an honest response at the current seq, advance
	// the feed, let the client pin the newer root, then replay the
	// capture. Its proof is internally consistent — only the pinned
	// anchor exposes the rollback.
	tamper.Store(func(any) {})
	var captured atomic.Pointer[query.GetResult]
	tamper.Store(func(resp any) {
		if gr, ok := resp.(*GetResponse); ok {
			captured.Store(gr.Result)
		}
	})
	if _, err := vc.Get(feedID, "k03"); err != nil {
		t.Fatalf("capture get rejected: %v", err)
	}
	stale := captured.Load()
	if stale == nil {
		t.Fatal("no response captured")
	}
	// Write to k03's shard until its view seq advances, then re-pin.
	for i := 0; i < 4; i++ {
		if _, err := admin.Do(feedID, []Op{{Type: "write", Key: "k03", Value: []byte(fmt.Sprintf("newer%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	tamper.Store(func(any) {})
	fresh, err := vc.Get(feedID, "k03")
	if err != nil {
		t.Fatalf("re-pin get rejected: %v", err)
	}
	if fresh.Seq <= stale.Seq {
		t.Fatalf("view did not advance (stale seq %d, fresh seq %d)", stale.Seq, fresh.Seq)
	}
	tamper.Store(func(resp any) {
		if gr, ok := resp.(*GetResponse); ok {
			gr.Result = stale
		}
	})
	mustReject("stale root replay", func() error { _, err := vc.Get(feedID, "k03"); return err })

	// Lied record count at the pinned seq: the root is genuine but the
	// count half of the (root, count) anchor is shrunk — the move that
	// would fake absence of a tail record. Depending on whether the lie
	// crosses a capacity boundary this dies in proof verification or in
	// the pinned-anchor comparison; both must reject.
	tamper.Store(func(resp any) {
		if gr, ok := resp.(*GetResponse); ok && gr.Result != nil {
			gr.Result.Count--
		}
	})
	mustReject("lied record count", func() error { _, err := vc.Get(feedID, "k05"); return err })

	if readResponses(g, "get", enc) == 0 || readResponses(g, "range", enc) == 0 ||
		readResponses(g, "get", "json") != 0 || readResponses(g, "range", "json") != 0 {
		t.Errorf("reads did not all cross the wire as %s", enc)
	}
}

// TestAnchorPinsCount pins the anchor arithmetic directly: at one pinned
// seq, a response reusing the genuine root with a different record count is
// rejected even when the capacity (and thus every proof check) is
// unchanged, and so is one with a different chain height.
func TestAnchorPinsCount(t *testing.T) {
	a := feedAnchor{{Seq: 5, Height: 20, Count: 12}}
	ok := observation{shard: 0, anchor: query.Anchor{Seq: 5, Height: 20, Count: 12}}
	if err := a.check(ok); err != nil {
		t.Fatalf("honest observation rejected: %v", err)
	}
	lied := observation{shard: 0, anchor: query.Anchor{Seq: 5, Height: 20, Count: 10}} // CapacityFor(10)==CapacityFor(12)
	if err := a.check(lied); !errors.Is(err, ErrVerification) {
		t.Fatalf("shrunk count at pinned seq accepted: %v", err)
	}
	raised := observation{shard: 0, anchor: query.Anchor{Seq: 5, Height: 25, Count: 12}}
	if err := a.check(raised); !errors.Is(err, ErrVerification) {
		t.Fatalf("different height at pinned seq accepted: %v", err)
	}
	regressed := observation{shard: 0, anchor: query.Anchor{Seq: 4, Height: 20, Count: 12}}
	if err := a.check(regressed); !errors.Is(err, ErrVerification) {
		t.Fatalf("regressed seq accepted: %v", err)
	}
}

// TestQueryRoutesErrors pins the error paths of the authenticated read
// routes.
func TestQueryRoutesErrors(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, err := c.Get("ghost", "k"); err == nil {
		t.Error("get on unknown feed succeeded")
	}
	if _, err := c.Roots("ghost"); err == nil {
		t.Error("roots on unknown feed succeeded")
	}
	if err := c.CreateFeed(FeedConfig{ID: "f", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("f", ""); err == nil {
		t.Error("get without key succeeded")
	}
	// Reads work before the first batch: the initial views cover the
	// empty sets.
	res, err := c.Get("f", "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("empty feed found a record")
	}
	if err := query.VerifyGet("nothing", res); err != nil {
		t.Errorf("empty-feed absence proof: %v", err)
	}
	roots, err := c.Roots("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0].Count != 0 {
		t.Errorf("roots = %+v, want 2 empty shards", roots)
	}
}

// TestVerifyingClientForwardSeqKeepsPin: nothing in a proof binds an answer's
// seq (or its height), so a gateway that raises them over the pinned root and
// count has the answer accepted without moving the pin, and the next honest
// answer still verifies.
func TestVerifyingClientForwardSeqKeepsPin(t *testing.T) {
	var bump atomic.Value // func(*query.Anchor)
	bump.Store(func(*query.Anchor) {})
	_, srv := readFeed(t, 4, 64, HandlerConfig{TamperQuery: func(resp any) {
		if gr, ok := resp.(*GetResponse); ok {
			bump.Swap(func(*query.Anchor) {}).(func(*query.Anchor))(&gr.Result.Anchor)
		}
	}})
	vc := NewVerifyingClient(srv.URL)
	const key = "user0000007"
	if _, err := vc.Get("f", key); err != nil {
		t.Fatal(err)
	}
	for name, forge := range map[string]func(*query.Anchor){
		"seq + 5":              func(a *query.Anchor) { a.Seq += 5 },
		"seq + 5, height + 1":  func(a *query.Anchor) { a.Seq += 5; a.Height++ },
		"seq + 5, height + 40": func(a *query.Anchor) { a.Seq += 5; a.Height += 40 },
	} {
		bump.Store(forge)
		res, err := vc.Get("f", key)
		if err != nil {
			t.Fatalf("%s: answer rejected: %v", name, err)
		}
		if !res.Found {
			t.Fatalf("%s: key not found", name)
		}
		if _, err := vc.Get("f", key); err != nil {
			t.Fatalf("honest get after %s: %v", name, err)
		}
	}
}

// TestVerifyingClientPinMovesOnlyToNewSet pins the price of keeping the pin
// over a raised seq: once a shard's set returns to its pinned state (A, B, A),
// the pin keeps A's older seq, so an answer of the B between is accepted and
// re-pins; an answer behind B's seq is then stale again.
func TestVerifyingClientPinMovesOnlyToNewSet(t *testing.T) {
	vc := NewVerifyingClient("http://gateway.invalid")
	setA := query.Anchor{Seq: 5, Height: 5, Root: merkle.Hash{0xa}, Count: 3}
	setB := query.Anchor{Seq: 7, Height: 7, Root: merkle.Hash{0xb}, Count: 4}
	at := func(a query.Anchor, seq uint64) query.Anchor { a.Seq, a.Height = seq, seq; return a }
	pin := feedAnchor{setA}
	for _, step := range []struct {
		name     string
		got, pin query.Anchor
		stale    bool
	}{
		{"A again at seq 10", at(setA, 10), setA, false},
		{"B from seq 7, behind the A at 10", setB, setB, false},
		{"A at seq 6, behind B", at(setA, 6), setB, true},
	} {
		err := vc.acceptAll(pin, []observation{{shard: 0, anchor: step.got}})
		if stale := errors.Is(err, ErrVerification); stale != step.stale {
			t.Errorf("%s: err = %v, want stale %v", step.name, err, step.stale)
		}
		if pin[0] != step.pin {
			t.Errorf("%s: pinned %+v, want %+v", step.name, pin[0], step.pin)
		}
	}
}
