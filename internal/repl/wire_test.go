package repl_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/server"
	"grub/internal/stream"
	"grub/internal/stream/streamtest"
	"grub/internal/wire"
	"grub/internal/workload/ycsb"
)

// realPage drives n YCSB-A batches of 16 ops (reads and 32-byte writes) into
// a one-shard gateway feed and returns its replication log page.
func realPage(tb testing.TB, n int) *repl.LogPage {
	tb.Helper()
	g, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	defer g.Close()
	if err := g.CreateFeed(server.FeedConfig{ID: "f", EpochOps: 8}); err != nil {
		tb.Fatal(err)
	}
	d := ycsb.NewDriver(ycsb.WorkloadA, 1000, 32, 1)
	for i := 0; i < n; i++ {
		if _, err := g.Do("f", core.FromWorkload(d.Generate(16))); err != nil {
			tb.Fatal(err)
		}
	}
	page, err := g.ReplLog("f", 0, 0, n)
	if err != nil {
		tb.Fatal(err)
	}
	if len(page.Entries) != n {
		tb.Fatalf("page holds %d entries, want %d", len(page.Entries), n)
	}
	return &page
}

// TestLogRouteSpeaksBinaryOnly: the log route answers in the binary log
// encoding whether or not the request names it, and Client.Log refuses an
// answer in any other type, naming both, without asking again.
func TestLogRouteSpeaksBinaryOnly(t *testing.T) {
	leader, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(server.NewHandler(leader))
	t.Cleanup(srv.Close)
	if err := leader.CreateFeed(server.FeedConfig{ID: "f", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "f", 20, 0)
	want, err := leader.ReplLog("f", 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/repl/feeds/f/shards/1/log?max=64") // no Accept, as curl sends
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != repl.LogMediaType {
		t.Fatalf("log fetch without Accept answered %q, want %q", ct, repl.LogMediaType)
	}
	if got, err := repl.DecodeLogPage(body); err != nil || len(got.Entries) == 0 || !reflect.DeepEqual(*got, want) {
		t.Errorf("log page decodes to %+v (%v), want %+v", got, err, want)
	}
	if got, err := repl.NewClient(srv.URL).Log("f", 1, 0, 64); err != nil || !reflect.DeepEqual(*got, want) {
		t.Errorf("Log = %+v (%v), want %+v", got, err, want)
	}

	var fetches atomic.Int64
	jsonLeader := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		fetches.Add(1)
		return stream.Head{Status: http.StatusOK, ContentType: "application/json"}, []byte(`{"entries":[],"floorSeq":0,"leaderSeq":0}`)
	})
	_, err = repl.NewClient(jsonLeader.URL).Log("f", 1, 0, 64)
	if err == nil || !strings.Contains(err.Error(), `"application/json"`) || !strings.Contains(err.Error(), repl.LogMediaType) {
		t.Errorf("Log of a JSON answer = %v, want an error naming both types", err)
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("Log fetched %d times, want 1", n)
	}
}

// TestSnapshotRouteSpeaksBinaryOnly: the snapshot route answers the binary
// image encoding whether or not the request names it, those bytes are the
// image's AppendSnapshot, and Client.Snapshot refuses an answer in any other
// type, naming both, without asking again.
func TestSnapshotRouteSpeaksBinaryOnly(t *testing.T) {
	leader, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(server.NewHandler(leader))
	t.Cleanup(srv.Close)
	if err := leader.CreateFeed(server.FeedConfig{ID: "f", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "f", 20, 0)
	want, err := leader.ReplSnapshot("f", 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/repl/feeds/f/shards/1/snapshot") // no Accept, as curl sends
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != repl.ImageMediaType {
		t.Fatalf("snapshot fetch without Accept answered %q, want %q", ct, repl.ImageMediaType)
	}
	if !bytes.Equal(body, repl.AppendSnapshot(nil, want)) {
		t.Errorf("the route answered %d bytes that are not the image's encoding", len(body))
	}
	if got, err := repl.NewClient(srv.URL).Snapshot("f", 1); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot = %+v (%v), want %+v", got, err, want)
	}

	var fetches atomic.Int64
	jsonLeader := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		fetches.Add(1)
		return stream.Head{Status: http.StatusOK, ContentType: "application/json"}, []byte(`{"shard":1,"seq":0,"feed":{}}`)
	})
	_, err = repl.NewClient(jsonLeader.URL).Snapshot("f", 1)
	if err == nil || !strings.Contains(err.Error(), `"application/json"`) || !strings.Contains(err.Error(), repl.ImageMediaType) {
		t.Errorf("Snapshot of a JSON answer = %v, want an error naming both types", err)
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("Snapshot fetched %d times, want 1", n)
	}
}

// TestSnapshotFrameHostileInput: a frame cut short is refused with
// ErrMalformed, and nothing the decoded image holds aliases the body.
func TestSnapshotFrameHostileInput(t *testing.T) {
	img := &repl.Snapshot{Shard: 1, Anchor: query.Anchor{Seq: 9, Count: 2, Height: 3}, Ops: 40, BaseGas: 7,
		Feed: &core.FeedSnapshot{Enc: []byte("feed state")}}
	body := repl.AppendSnapshot(nil, img)
	frame := len(body) - len(img.Feed.Enc)
	for _, n := range []int{0, 1, frame - 1} {
		if _, err := repl.DecodeSnapshot(body[:n]); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("a %d-byte body decodes with %v, want ErrMalformed", n, err)
		}
	}
	got, err := repl.DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("decoded %+v, want %+v", got, img)
	}
}

// pageAllocLimit bounds what decoding a body may allocate: the LogPage, an
// 80-byte Entry per 36 body bytes and a 64-byte Op per 4 at worst, and the
// keys and values; the constant absorbs the runtime's own allocations
// between the two readings.
func pageAllocLimit(body []byte) uint64 { return uint64(64*len(body) + 64<<10) }

// decodeAllocs reports the bytes decode allocated.
func decodeAllocs(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLogPageHostileInput: a malformed page is refused with ErrMalformed,
// and decoding it allocates nothing sized from a count it claims.
func TestLogPageHostileInput(t *testing.T) {
	entry := repl.Entry{Anchor: query.Anchor{Seq: 5, Count: 1, Height: 2}, Ops: []core.Op{{Type: "write", Key: "a-key-of-twenty-bytes", Value: []byte("v")}}}
	good := repl.AppendLogPage(nil, &repl.LogPage{Entries: []repl.Entry{entry}, FloorSeq: 4, LeaderSeq: 5})
	rootAt := len(core.AppendOps(wire.AppendUint(wire.AppendInt(nil, 1), entry.Seq), entry.Ops))
	snapFlag := slices.Clone(good)
	snapFlag[len(snapFlag)-1] = 2
	for name, body := range map[string][]byte{
		"entry count larger than the body": append(wire.AppendInt(nil, 1<<40), make([]byte, 40)...),
		"truncated root":                   good[:rootAt+20],
		"snapshot byte 2":                  snapFlag,
		"trailing bytes":                   append(slices.Clone(good), 0),
		"no snapshot byte":                 good[:len(good)-1],
		"non-minimal seq":                  append([]byte{1, 0x85, 0x00}, good[2:]...),
	} {
		var err error
		if got := decodeAllocs(func() { _, err = repl.DecodeLogPage(body) }); got > pageAllocLimit(body) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(body), got)
		}
		if !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: DecodeLogPage = %v, want ErrMalformed", name, err)
		}
	}
	if _, err := repl.DecodeLogPage(good); err != nil {
		t.Fatalf("well-formed page: %v", err)
	}
}

// TestLogPageDecodeAllocations: decoding a 128-entry page allocates the
// LogPage, its entry slice, each entry's op slice, one string per key and
// one slice per non-empty value — and no copy of the body.
func TestLogPageDecodeAllocations(t *testing.T) {
	page := realPage(t, 128)
	body := repl.AppendLogPage(nil, page)
	want := 2
	for _, e := range page.Entries {
		want += 1 + len(e.Ops)
		for _, op := range e.Ops {
			if len(op.Value) > 0 {
				want++
			}
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := repl.DecodeLogPage(body); err != nil {
			t.Fatal(err)
		}
	})
	if got != float64(want) {
		t.Errorf("decoding a %d-entry page made %v allocations, want %d", len(page.Entries), got, want)
	}
}

// TestLogFetchAllocations pins what one 16-entry log page costs over a
// Go-to-Go stream beyond decoding it (TestLogPageDecodeAllocations): the
// client's exchange and the gateway's route, encoding and answer frame
// together. It is 38; a net/http round trip per page cost 90.
func TestLogFetchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const entries, bound = 16, 41
	g, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.CreateFeed(server.FeedConfig{ID: "f", EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	d := ycsb.NewDriver(ycsb.WorkloadA, 1000, 32, 1)
	for range entries {
		if _, err := g.Do("f", core.FromWorkload(d.Generate(16))); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(server.NewHandler(g))
	defer srv.Close()
	c := &repl.Client{Base: srv.URL, HTTP: &http.Client{Transport: &http.Transport{}}}
	defer c.Close()
	var page *repl.LogPage
	fetch := func() {
		if page, err = c.Log("f", 0, 0, entries); err != nil || len(page.Entries) != entries {
			t.Fatalf("log page: %d entries, %v", len(page.Entries), err)
		}
	}
	for range 20 { // warm the pools and the stream
		fetch()
	}
	decode := 2
	for _, e := range page.Entries {
		decode += 1 + len(e.Ops)
		for _, op := range e.Ops {
			if len(op.Value) > 0 {
				decode++
			}
		}
	}
	got := testing.AllocsPerRun(100, fetch) - float64(decode)
	t.Logf("%.1f allocations per %d-entry page beyond its %d to decode", got, entries, decode)
	if got > bound {
		t.Errorf("%.1f allocations per %d-entry page beyond decoding, want at most %d", got, entries, bound)
	}
}

// FuzzLogPageDecode: arbitrary bytes decoded as a log page never panic,
// never allocate past pageAllocLimit, and whatever decodes re-encodes to the
// bytes it came from.
//
// Wired into `make fuzz-smoke`.
func FuzzLogPageDecode(f *testing.F) {
	page := realPage(f, 6)
	for _, p := range []*repl.LogPage{
		page,
		{Entries: page.Entries[:1], FloorSeq: 1, LeaderSeq: 9},
		{FloorSeq: 2, LeaderSeq: 7, SnapshotRequired: true},
	} {
		body := repl.AppendLogPage(nil, p)
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-1])
	}
	f.Add(append(wire.AppendInt(nil, 1<<40), make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		var p *repl.LogPage
		var err error
		if got := decodeAllocs(func() { p, err = repl.DecodeLogPage(body) }); got > pageAllocLimit(body) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), got)
		}
		if err == nil {
			if again := repl.AppendLogPage(nil, p); !bytes.Equal(again, body) {
				t.Fatalf("accepted page re-encodes to other bytes:\n%x\nwant\n%x", again, body)
			}
		}
	})
}

// BenchmarkDecodeLogPage decodes a 128-entry page of 16-op batches, the
// page a follower fetches at MaxBatches 128, from each of its encodings.
func BenchmarkDecodeLogPage(b *testing.B) {
	page := realPage(b, 128)
	ops := 0
	for _, e := range page.Entries {
		ops += len(e.Ops)
	}
	js, err := json.Marshal(page)
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"json", js, func(body []byte) error { var p repl.LogPage; return json.Unmarshal(body, &p) }},
		{"binary", repl.AppendLogPage(nil, page), func(body []byte) error { _, err := repl.DecodeLogPage(body); return err }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.decode(enc.body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/op_decoded")
		})
	}
}
