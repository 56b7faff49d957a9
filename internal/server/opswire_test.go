package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/obs"
	"grub/internal/shard"
	"grub/internal/stream"
	"grub/internal/wire"
	"grub/internal/workload/ycsb"
)

// opsWire logs the media types of every ops request a gateway serves and of
// its answer, as "request>answer". It wraps the ops route's handler, so it
// sees every batch a typed stream frame carries as well as every HTTP one.
type opsWire struct {
	mu  sync.Mutex
	log []string
}

func (o *opsWire) wrap(serve func(*api, *call, *reply)) func(*api, *call, *reply) {
	return func(a *api, c *call, rep *reply) {
		sent := OpsMediaType
		if c.Flags&stream.JSONBody != 0 {
			sent = "application/json"
		}
		serve(a, c, rep)
		o.mu.Lock()
		o.log = append(o.log, sent+">"+rep.ContentType)
		o.mu.Unlock()
	}
}

func (o *opsWire) types() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.log)
}

// opsGateway creates feed cfg on a fresh in-memory gateway served through an
// opsWire, and returns a client with its own connection pool.
func opsGateway(tb testing.TB, cfg FeedConfig) (*Gateway, *Client, *opsWire) {
	tb.Helper()
	g := NewGateway()
	tb.Cleanup(g.Close)
	h := NewHandler(g).(*streamHandler)
	ow := &opsWire{}
	wrapRoute(h, "POST /feeds/{id}/ops", ow.wrap)
	srv := httptest.NewServer(h)
	tb.Cleanup(srv.Close)
	if err := g.CreateFeed(cfg); err != nil {
		tb.Fatal(err)
	}
	c := NewClient(srv.URL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	return g, c, ow
}

// postJSON posts a batch as curl does, JSON with no Accept header, and
// returns the gateway's JSON answer.
func postJSON(tb testing.TB, url string, body []byte) []byte {
	tb.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		tb.Fatalf("POST %s: HTTP %d, Content-Type %q, %v", url, resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}
	return answer
}

// randomBatch draws a batch over every corner of the op encoding: the three
// op types and unknown ones (including the empty type), nil, empty and long
// values, scan lengths zero and negative, and a key space small enough that
// reads find what writes wrote.
func randomBatch(rng *rand.Rand, n int) []Op {
	types := []string{"read", "read", "write", "write", "scan", "delete", ""}
	ops := make([]Op, n)
	for i := range ops {
		op := Op{Type: types[rng.IntN(len(types))], Key: fmt.Sprintf("k%02d", rng.IntN(40)), ScanLen: rng.IntN(7) - 3}
		switch rng.IntN(4) {
		case 0:
		case 1:
			op.Value = []byte{}
		default:
			op.Value = bytes.Repeat([]byte{byte(rng.IntN(256))}, rng.IntN(300))
		}
		ops[i] = op
	}
	return ops
}

// TestOpsEncodingsEquivalent sends the same seeded random batches as JSON,
// the way curl posts them, to one gateway and through Client in the binary
// ops encoding to another: every result, every shard root and the feeds' Gas
// must come out equal.
func TestOpsEncodingsEquivalent(t *testing.T) {
	cfg := FeedConfig{ID: "f", Shards: 2, EpochOps: 4}
	gj, cj, wj := opsGateway(t, cfg)
	gb, cb, wb := opsGateway(t, cfg)
	rng := rand.New(rand.NewPCG(31, 7))
	for i := 0; i < 300; i++ {
		batch := randomBatch(rng, rng.IntN(24))
		body, err := json.Marshal(BatchRequest{Ops: batch})
		if err != nil {
			t.Fatal(err)
		}
		var rj BatchResponse
		if err := json.Unmarshal(postJSON(t, cj.BaseURL+"/feeds/f/ops", body), &rj); err != nil {
			t.Fatal(err)
		}
		rb, err := cb.Do("f", batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rj.Results, rb) {
			t.Fatalf("batch %d: results differ\n json %+v\n bin  %+v", i, rj.Results, rb)
		}
	}
	for _, side := range []struct {
		ow   *opsWire
		want string
	}{{wj, "application/json>application/json"}, {wb, OpsMediaType + ">" + OpsMediaType}} {
		for _, got := range side.ow.types() {
			if got != side.want {
				t.Fatalf("a batch crossed as %q, want %q", got, side.want)
			}
		}
	}
	sj, err := gj.Stats("f")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := gb.Stats("f")
	if err != nil {
		t.Fatal(err)
	}
	if sj.Ops != sb.Ops || !reflect.DeepEqual(sj.Feed, sb.Feed) {
		t.Errorf("feed stats differ:\n json %+v\n bin  %+v", sj, sb)
	}
	if sj.Feed.FeedGas == 0 {
		t.Error("no Gas charged: the batches did nothing")
	}
	rootsJ, err := cj.Roots("f")
	if err != nil {
		t.Fatal(err)
	}
	rootsB, err := cb.Roots("f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rootsJ, rootsB) {
		t.Errorf("roots differ:\n json %+v\n bin  %+v", rootsJ, rootsB)
	}
}

// goldenBatch is the batch TestOpsJSONGolden pins: every op type, a value
// that comes back, an unknown type and a scan.
var goldenBatch = []Op{
	{Type: "write", Key: "ETH-USD", Value: []byte("2150.75")},
	{Type: "write", Key: "BTC-USD", Value: []byte("61012.5")},
	{Type: "read", Key: "ETH-USD"},
	{Type: "read", Key: "SOL-USD"},
	{Type: "scan", Key: "BTC-USD", ScanLen: 2},
	{Type: "delete", Key: "ETH-USD"},
}

// TestOpsJSONGolden: a batch in JSON, and the JSON a gateway answers to a
// request that names no binary type (as curl sends), are the bytes the
// gateway exchanged before the binary ops encoding existed. The golden files
// were written by this test on the commit before it.
func TestOpsJSONGolden(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	if err := g.CreateFeed(FeedConfig{ID: "f", EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	sent, err := json.Marshal(BatchRequest{Ops: goldenBatch})
	if err != nil {
		t.Fatal(err)
	}
	answer := postJSON(t, srv.URL+"/feeds/f/ops", sent)
	for name, got := range map[string][]byte{"ops_request.json": sent, "ops_response.json": answer} {
		file := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestClientSpeaksBinaryOps: a fresh Client sends its first batch, and every
// one after it, in the binary ops encoding and asks for binary results.
func TestClientSpeaksBinaryOps(t *testing.T) {
	_, c, w := opsGateway(t, FeedConfig{ID: "f", EpochOps: 2})
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 3; i++ {
		if _, err := c.Do("f", randomBatch(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	bin := OpsMediaType + ">" + OpsMediaType
	if got, want := w.types(), []string{bin, bin, bin}; !slices.Equal(got, want) {
		t.Errorf("batches crossed as %q, want %q", got, want)
	}
}

// TestClientRefusesOtherAnswerTypes: Do, Get and Range take an answer only
// in their binary type. One in JSON is an error naming the type received and
// the type expected, and the request is not sent again in another form.
func TestClientRefusesOtherAnswerTypes(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(BatchResponse{})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	for _, tc := range []struct {
		name, want string
		call       func() error
	}{
		{"Do", OpsMediaType, func() error { _, err := c.Do("f", []Op{{Type: "read", Key: "k"}}); return err }},
		{"Get", ReadMediaType, func() error { _, err := c.Get("f", "k"); return err }},
		{"Range", ReadMediaType, func() error { _, err := c.Range("f", "a", "b"); return err }},
	} {
		calls.Store(0)
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), `"application/json"`) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s of a JSON answer = %v, want an error naming application/json and %s", tc.name, err, tc.want)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%s sent %d requests, want 1", tc.name, n)
		}
	}
}

// TestDecodeOpsOwnsKeysAndValues: decoding a batch allocates the op slice,
// one string per key and one slice per non-empty value, and no copy of the
// body, which nothing decoded aliases. A key or value aliasing the body
// instead would keep the whole body reachable for as long as the feed keeps
// that op.
func TestDecodeOpsOwnsKeysAndValues(t *testing.T) {
	ops := randomBatch(rand.New(rand.NewPCG(2, 2)), 16)
	body := core.AppendOps(nil, ops)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := core.DecodeOps(body); err != nil {
			t.Fatal(err)
		}
	})
	want := 1 + len(ops)
	for _, op := range ops {
		if op.Type != "read" && op.Type != "write" && op.Type != "scan" && op.Type != "" {
			want++ // an unknown type is a string of its own too
		}
		if len(op.Value) > 0 {
			want++
		}
	}
	if allocs != float64(want) {
		t.Errorf("decoding %d ops made %v allocations, want %d", len(ops), allocs, want)
	}
}

// TestBinaryBatchesDoNotPinBodies: each shard's replication log keeps its
// sub-batches' ops, and bounds them by their own keys and values. Binary
// batches that send 512 KiB to one shard and a 1-byte write to the other must
// not let the small write keep the bulk reachable once the bulk's shard has
// evicted it: live heap grows by the log's byte cap at most, not by every
// body the small shard's entries came from.
func TestBinaryBatchesDoNotPinBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("posts 40 MiB of batches")
	}
	const batches = 80
	_, c, w := opsGateway(t, FeedConfig{ID: "f", Shards: 2})
	batch := []Op{{Type: "write", Value: []byte{1}}}
	for i := 0; batch[0].Key == "" || len(batch) < 9; i++ {
		k := fmt.Sprintf("k%d", i)
		switch {
		case shard.ShardOf(k, 2) == 0 && batch[0].Key == "":
			batch[0].Key = k
		case shard.ShardOf(k, 2) == 1 && len(batch) < 9:
			batch = append(batch, Op{Type: "write", Key: k, Value: make([]byte, 64<<10)})
		}
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for i := 0; i < batches; i++ {
		if _, err := c.Do("f", batch); err != nil {
			t.Fatal(err)
		}
	}
	grew := live() - before
	t.Logf("live heap grew %.1f MiB over %d batches of %d KiB", float64(grew)/(1<<20), batches, len(core.AppendOps(nil, batch))>>10)
	if limit := int64(shard.DefaultReplRetainBytes + 4<<20); grew > limit {
		t.Errorf("live heap grew %d bytes, past the replication log's cap plus slack (%d)", grew, limit)
	}
	if got := w.types(); len(got) != batches || got[0] != OpsMediaType+">"+OpsMediaType {
		t.Fatalf("batches crossed as %q, want binary", got)
	}
}

// decodeAllocs reports the bytes decode allocated.
func decodeAllocs(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// opsAllocLimit bounds what decoding a body may allocate: a private copy of
// the body (results), a 64-byte Op or OpResult per 2 body bytes at worst, and
// the keys; the
// constant absorbs the runtime's own allocations between the two readings.
func opsAllocLimit(body []byte) uint64 { return uint64(64*len(body) + 64<<10) }

// TestOpsWireHostileInput: a malformed binary batch gets a 400 and executes
// nothing, and decoding it allocates nothing sized from a count it claims; a
// binary body past the size cap gets a 413.
func TestOpsWireHostileInput(t *testing.T) {
	good := core.AppendOps(nil, []Op{{Type: "write", Key: "k1", Value: []byte("v")}, {Type: "read", Key: "k1"}})
	hostile := map[string][]byte{
		"count larger than the body": append(wire.AppendInt(nil, 1<<40), 0, 0, 0, 0),
		"truncated op":               good[:len(good)-2],
		"trailing bytes":             append(slices.Clone(good), 0),
		"unknown code byte":          {1, 4, 0, 0, 0},
		"value past the body":        {1, 1, 0, 9, 'v', 0},
		"negative int":               append([]byte{1, 0, 0, 0}, wire.AppendInt(nil, -1)...),
	}
	for name, body := range hostile {
		if _, err := core.DecodeOps(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: core.DecodeOps = %v, want ErrMalformed", name, err)
		}
		if got := decodeAllocs(func() { core.DecodeOps(body) }); got > opsAllocLimit(body) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(body), got)
		}
	}

	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandlerConfig(g, HandlerConfig{MaxBodyBytes: 1024}))
	defer srv.Close()
	if err := g.CreateFeed(FeedConfig{ID: "f", EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/feeds/f/ops", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", OpsMediaType)
		req.Header.Set("Accept", OpsMediaType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for name, body := range hostile {
		if status, msg := post(body); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400", name, status, msg)
		}
	}
	big := core.AppendOps(nil, []Op{{Type: "write", Key: "k", Value: make([]byte, 2048)}})
	if status, msg := post(big); status != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds 1024 bytes") {
		t.Errorf("oversized body: HTTP %d %s, want 413", status, msg)
	}
	if st, err := g.Stats("f"); err != nil || st.Ops != 0 {
		t.Fatalf("rejected bodies executed ops: %+v, %v", st, err)
	}
	if status, msg := post(good); status != http.StatusOK {
		t.Fatalf("well-formed body: HTTP %d %s", status, msg)
	}
}

// FuzzOpsWireDecode: arbitrary bytes, decoded as a batch and as the answer to
// one, never panic, never allocate past a multiple of the body's size, and
// whatever decodes survives a re-encoding unchanged.
func FuzzOpsWireDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 1, 5, 16} {
		ops := randomBatch(rng, n)
		body := core.AppendOps(nil, ops)
		f.Add(body)
		f.Add(body[:len(body)/2])
		results := make([]OpResult, n)
		for i := range results {
			results[i] = OpResult{Found: i%2 == 0, Value: ops[i].Value}
			if i%3 == 0 {
				results[i].Err = "unknown op type \"x\""
			}
		}
		f.Add(appendResults(nil, results))
	}
	f.Add(append(wire.AppendInt(nil, 1<<40), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, body []byte) {
		var ops []Op
		var err error
		if got := decodeAllocs(func() { ops, err = core.DecodeOps(body) }); got > opsAllocLimit(body) {
			t.Fatalf("decoding %d bytes as ops allocated %d", len(body), got)
		}
		if err == nil {
			if again, err := core.DecodeOps(core.AppendOps(nil, ops)); err != nil || !reflect.DeepEqual(ops, again) {
				t.Fatalf("accepted batch changes across a re-encoding (%v)", err)
			}
		}
		// Decode as results for as many ops as the body claims, when it
		// could hold that many: a result is at least two bytes.
		n, k := binary.Uvarint(body)
		if k <= 0 || n > uint64(len(body)/2) {
			return
		}
		keyed := make([]Op, n)
		var results []OpResult
		if got := decodeAllocs(func() { results, err = decodeResults(body, keyed) }); got > opsAllocLimit(body) {
			t.Fatalf("decoding %d bytes as results allocated %d", len(body), got)
		}
		if err == nil {
			if again, err := decodeResults(appendResults(nil, results), keyed); err != nil || !reflect.DeepEqual(results, again) {
				t.Fatalf("accepted results change across a re-encoding (%v)", err)
			}
		}
	})
}

// writeStack serves a durable gateway whose feed "f" holds 10k YCSB records
// (32-byte values) and returns a client for it with n YCSB-A batches of 16
// ops: the write_http_durable workload's shape, one client, in process.
func writeStack(tb testing.TB, n int) (*Client, [][]Op) {
	tb.Helper()
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: tb.TempDir(), SnapshotEvery: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(g.Close)
	srv := httptest.NewServer(NewHandler(g))
	tb.Cleanup(srv.Close)
	if err := g.CreateFeed(FeedConfig{ID: "f", Policy: "memoryless", K: 2, EpochOps: 8}); err != nil {
		tb.Fatal(err)
	}
	d := ycsb.NewDriver(ycsb.WorkloadA, 10000, 32, 1)
	preload := core.FromWorkload(d.Preload())
	for len(preload) > 0 {
		k := min(len(preload), 1024)
		if _, err := g.Do("f", preload[:k]); err != nil {
			tb.Fatal(err)
		}
		preload = preload[k:]
	}
	ops := core.FromWorkload(d.Generate(16 * n))
	batches := make([][]Op, n)
	for i := range batches {
		batches[i] = ops[16*i : 16*i+16]
	}
	c := NewClient(srv.URL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	tb.Cleanup(c.HTTP.CloseIdleConnections)
	return c, batches
}

// TestClientDoAllocations pins what one 16-op YCSB-A batch allocates, client
// and gateway together, as a typed frame on a loopback Go-to-Go stream into a
// durable feed: 51. A record set that copied every written value cost 59,
// frames that emulated HTTP 92, the binary ops encoding over a net/http
// round trip 256, and both sides speaking JSON 325.
func TestClientDoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads a 10k-record durable feed")
	}
	const bound = 57
	c, batches := writeStack(t, 400)
	for _, b := range batches[:100] { // warm the pools, the connection, the encoding
		if _, err := c.Do("f", b); err != nil {
			t.Fatal(err)
		}
	}
	i := 100
	allocs := testing.AllocsPerRun(len(batches)-i-1, func() {
		if _, err := c.Do("f", batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per 16-op batch", allocs)
	if allocs > bound {
		t.Errorf("%.1f allocations per 16-op batch, want at most %d", allocs, bound)
	}
}

// BenchmarkClientDo prices one 16-op YCSB-A batch through Client.Do into a
// durable feed, client and gateway together.
func BenchmarkClientDo(b *testing.B) {
	c, batches := writeStack(b, 1024)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := c.Do("f", batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestClusterForwardsBinaryBatch: a binary batch sent to a node that does not
// own the feed crosses the forward hop as it came and its answer comes back
// binary, and the ingress node's slow-op record counts the batch's ops.
func TestClusterForwardsBinaryBatch(t *testing.T) {
	logs := make([]*syncBuffer, 2)
	nodes := startTestClusterCfg(t, 2, func(i int, hc *HandlerConfig) {
		logs[i] = &syncBuffer{}
		hc.SlowOp = time.Nanosecond // log every batch
		hc.SlowOpWriter = logs[i]
	})
	c := NewClient(nodes[0].url)
	if err := c.CreateFeed(FeedConfig{ID: "fwd", Shards: 2, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	wi := 1 - ownerIndex(t, nodes, "fwd", 5*time.Second)

	batch := randomBatch(rand.New(rand.NewPCG(8, 8)), 7)
	const traceID = "fwdbinary0123456"
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, nodes[wi].url+"/feeds/fwd/ops", bytes.NewReader(core.AppendOps(nil, batch)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", OpsMediaType)
		req.Header.Set("Accept", OpsMediaType)
		req.Header.Set(obs.TraceHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if ct := resp.Header.Get("Content-Type"); ct != OpsMediaType {
				t.Fatalf("forwarded binary batch answered in %q", ct)
			}
			if _, err := decodeResults(body, batch); err != nil {
				t.Fatal(err)
			}
			break
		}
		if attempt >= 20 {
			t.Fatalf("forwarded write never succeeded: HTTP %d: %s", resp.StatusCode, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
	rec := waitSlowRecord(t, logs[wi], traceID, 3*time.Second, obs.StageForward, obs.StageRemoteApply)
	if rec.Ops != len(batch) {
		t.Errorf("slow-op record counts %d ops, the batch has %d", rec.Ops, len(batch))
	}
}
