package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"grub/internal/core"
	"grub/internal/workload"
)

func TestCreateFeedValidation(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	if err := g.CreateFeed(FeedConfig{}); err == nil {
		t.Error("empty id accepted")
	}
	if err := g.CreateFeed(FeedConfig{ID: "a", Policy: "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := g.CreateFeed(FeedConfig{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateFeed(FeedConfig{ID: "a"}); err == nil {
		t.Error("duplicate id accepted")
	}
	if got := g.Feeds(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Feeds() = %v, want [a]", got)
	}
}

func TestUnknownFeed(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	if _, err := g.Do("nope", nil); err == nil {
		t.Error("Do on unknown feed succeeded")
	}
	if _, err := g.Stats("nope"); err == nil {
		t.Error("Stats on unknown feed succeeded")
	}
	if err := g.CloseFeed("nope"); err == nil {
		t.Error("CloseFeed on unknown feed succeeded")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	if err := g.CreateFeed(FeedConfig{ID: "prices", EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	results, err := g.Do("prices", []Op{
		{Type: "write", Key: "ETH-USD", Value: []byte("2150.75")},
		{Type: "write", Key: "BTC-USD", Value: []byte("64000.00")},
		{Type: "read", Key: "ETH-USD"},
		{Type: "read", Key: "missing"},
		{Type: "scan", Key: "BTC-USD", ScanLen: 2},
		{Type: "frobnicate", Key: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	// With EpochOps=2 the two writes close an epoch (digest on-chain)
	// before the first read, so the read must deliver the written value —
	// reads within an open epoch would see only the previous digest
	// (epoch-bounded freshness, §3.4).
	if !results[2].Found || string(results[2].Value) != "2150.75" {
		t.Errorf("read ETH-USD = (%v, %q), want (true, 2150.75)", results[2].Found, results[2].Value)
	}
	if results[3].Found {
		t.Error("read of missing key reported Found")
	}
	if results[3].Err != "" {
		t.Errorf("read of missing key errored: %s", results[3].Err)
	}
	if results[5].Err == "" {
		t.Error("unknown op type did not error")
	}

	st, err := g.Stats("prices")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "prices" || st.Ops != 6 || st.Batches != 1 {
		t.Errorf("stats id/ops/batches = %s/%d/%d, want prices/6/1", st.ID, st.Ops, st.Batches)
	}
	if st.Feed.FeedGas == 0 || st.GasPerOp <= 0 {
		t.Errorf("stats gas empty: %+v", st)
	}
	if st.Feed.Records != 2 {
		t.Errorf("records = %d, want 2", st.Feed.Records)
	}
	if st.Feed.Delivered < 1 || st.Feed.NotFound < 1 {
		t.Errorf("delivered/notFound = %d/%d, want >=1 each", st.Feed.Delivered, st.Feed.NotFound)
	}
}

func TestTraceRecording(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	if err := g.CreateFeed(FeedConfig{ID: "on", RecordTrace: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateFeed(FeedConfig{ID: "off"}); err != nil {
		t.Fatal(err)
	}
	batch := []Op{{Type: "write", Key: "k", Value: []byte("v")}, {Type: "read", Key: "k"}}
	for _, id := range []string{"on", "off"} {
		if _, err := g.Do(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	tr, _, err := g.TraceResults("on")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[0].Key != "k" {
		t.Errorf("trace = %v, want the 2-op batch", tr)
	}
	tr, _, err = g.TraceResults("off")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 0 {
		t.Errorf("trace recorded without RecordTrace: %v", tr)
	}
}

func TestCloseFeedAndGateway(t *testing.T) {
	g := NewGateway()
	for i := 0; i < 4; i++ {
		if err := g.CreateFeed(FeedConfig{ID: fmt.Sprintf("f%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CloseFeed("f0"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Do("f0", nil); err == nil {
		t.Error("Do on closed feed succeeded")
	}
	g.Close()
	if err := g.CreateFeed(FeedConfig{ID: "late"}); err == nil {
		t.Error("CreateFeed after Close succeeded")
	}
	if len(g.Feeds()) != 0 {
		t.Errorf("feeds remain after Close: %v", g.Feeds())
	}
}

// TestConcurrentSameFeed hammers one feed from many goroutines: the worker
// must serialize the batches without a race (run under -race) and account
// every op.
func TestConcurrentSameFeed(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	if err := g.CreateFeed(FeedConfig{ID: "hot", EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	const workers, batches = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				key := fmt.Sprintf("k%d", wi)
				_, err := g.Do("hot", []Op{
					{Type: "write", Key: key, Value: []byte{byte(b)}},
					{Type: "read", Key: key},
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := g.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if want := workers * batches * 2; st.Ops != want {
		t.Errorf("ops = %d, want %d", st.Ops, want)
	}
	if want := workers * batches; st.Batches != want {
		t.Errorf("batches = %d, want %d", st.Batches, want)
	}
}

func TestFromWorkload(t *testing.T) {
	trace := []workload.Op{
		workload.Write("a", []byte("v")),
		workload.Read("b"),
		workload.Scan("c", 3),
	}
	ops := core.FromWorkload(trace)
	want := []Op{
		{Type: "write", Key: "a", Value: []byte("v")},
		{Type: "read", Key: "b"},
		{Type: "scan", Key: "c", ScanLen: 3},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("FromWorkload = %+v, want %+v", ops, want)
	}
}
