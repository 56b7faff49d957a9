package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/stream"
	"grub/internal/stream/streamtest"
	"grub/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// readFeed creates feed "f" with n preloaded NR records (keys user0000000…,
// 32-byte values) on a fresh gateway behind a test server.
func readFeed(tb testing.TB, shards, n int, hc HandlerConfig) (*Gateway, *httptest.Server) {
	tb.Helper()
	g := NewGateway()
	tb.Cleanup(g.Close)
	srv := httptest.NewServer(NewHandlerConfig(g, hc))
	tb.Cleanup(srv.Close)
	if err := g.CreateFeed(FeedConfig{ID: "f", Shards: shards, EpochOps: 4}); err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < n; lo += 1024 {
		var ops []Op
		for i := lo; i < min(lo+1024, n); i++ {
			ops = append(ops, Op{Type: "write", Key: fmt.Sprintf("user%07d", i), Value: bytes.Repeat([]byte{byte(i)}, 32)})
		}
		if _, err := g.Do("f", ops); err != nil {
			tb.Fatal(err)
		}
	}
	return g, srv
}

// rawGet fetches url with the given Accept header ("" = none, as curl sends).
func rawGet(tb testing.TB, url, accept string) (body []byte, contentType string) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
	}
	if cl := resp.Header.Get("Content-Length"); accept == ReadMediaType && cl != fmt.Sprint(len(body)) {
		tb.Fatalf("GET %s: Content-Length %q on a %d-byte binary body", url, cl, len(body))
	}
	return body, resp.Header.Get("Content-Type")
}

// TestReadJSONGolden: a request without an Accept header gets the JSON the
// gateway served before the binary encoding existed, byte for byte. The
// golden files were written by this test on the commit before.
func TestReadJSONGolden(t *testing.T) {
	_, srv := readFeed(t, 2, 12, HandlerConfig{})
	for name, path := range map[string]string{
		"read_get.json":    "/feeds/f/get?key=user0000003",
		"read_absent.json": "/feeds/f/get?key=user0000003x",
		"read_range.json":  "/feeds/f/range?lo=user0000002&hi=user0000006",
	} {
		got, ct := rawGet(t, srv.URL+path, "")
		if ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
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
			t.Errorf("%s: JSON body changed:\n got %s\nwant %s", path, got, want)
		}
	}
}

// TestClientReadsBothEncodings: a gateway serves the Client's binary read
// and the JSON form curl gets (no Accept header) of the same get or range,
// and the two carry the same result.
func TestClientReadsBothEncodings(t *testing.T) {
	g, srv := readFeed(t, 4, 2000, HandlerConfig{})
	bin := NewVerifyingClient(srv.URL)
	for _, key := range []string{"user0000042", "user0000042x"} {
		a, err := bin.Get("f", key)
		if err != nil {
			t.Fatal(err)
		}
		var b GetResponse
		body, _ := rawGet(t, srv.URL+"/feeds/f/get?key="+url.QueryEscape(key), "")
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b.Result) {
			t.Errorf("get %q differs between the encodings", key)
		}
	}
	for _, w := range [][2]string{{"user0000100", "user0000140"}, {"b", "a"}, {"", "zzz"}} {
		a, err := bin.Range("f", w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		var b RangeResponse
		body, _ := rawGet(t, srv.URL+"/feeds/f/range?lo="+url.QueryEscape(w[0])+"&hi="+url.QueryEscape(w[1]), "")
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b.Results) {
			t.Errorf("range %v differs between the encodings", w)
		}
	}

	// Both forms are counted, and bytes per read is a number the gateway
	// serves: a binary get is well under half its JSON form.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseExposition(string(text))
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{} // "family route encoding" -> value
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "grub_read_") {
			continue
		}
		for _, s := range f.Samples {
			var route, enc string
			for _, l := range s.Labels {
				switch l.Name {
				case "route":
					route = l.Value
				case "encoding":
					enc = l.Value
				}
			}
			per[f.Name+" "+route+" "+enc] = s.Value
		}
	}
	for _, route := range []string{"get", "range"} {
		for _, enc := range []string{"binary", "json"} {
			n, b := per["grub_read_responses_total "+route+" "+enc], per["grub_read_response_bytes_total "+route+" "+enc]
			if n == 0 || b == 0 || n != readResponses(g, route, enc) {
				t.Errorf("%s/%s: %v responses, %v bytes on /metrics", route, enc, n, b)
			}
		}
	}
	binGet := per["grub_read_response_bytes_total get binary"] / per["grub_read_responses_total get binary"]
	jsGet := per["grub_read_response_bytes_total get json"] / per["grub_read_responses_total get json"]
	if binGet > jsGet/2 {
		t.Errorf("binary get is %.0f bytes, JSON %.0f: expected under half", binGet, jsGet)
	}
}

// countConns serves h and counts the connections clients open to it.
func countConns(tb testing.TB, h http.Handler) (url string, opened *atomic.Int64) {
	opened = new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	tb.Cleanup(srv.Close)
	return srv.URL, opened
}

// TestClientKeepsOneConnection: a sequential caller's requests all ride one
// keep-alive connection, whatever the size and encoding of the answers. A
// JSON answer past net/http's 2 kB buffer is chunked; closing its body right
// after json.Decoder returned — ahead of the terminating chunk — made the
// transport drop the connection about every other request.
func TestClientKeepsOneConnection(t *testing.T) {
	g, _ := readFeed(t, 4, 20000, HandlerConfig{})
	url, opened := countConns(t, NewHandler(g))
	reads := make([]Op, 256)
	for i := range reads {
		reads[i] = Op{Type: "read", Key: fmt.Sprintf("user%07d", 19000+i)} // clear of the range windows: a read may replicate its record
	}
	c := NewClient(url)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	for i := 0; i < 200; i++ {
		lo, hi := fmt.Sprintf("user%07d", i*90), fmt.Sprintf("user%07d", i*90+400)
		slices, err := c.Range("f", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(slices[0].Range.Records); n < 50 {
			t.Fatalf("range answer too small to be chunked: %d records in shard 0", n)
		}
		// The same range as JSON, a multi-kilobyte answer.
		var js RangeResponse
		a, err := c.streams.Send(c.HTTP, c.BaseURL, &stream.Request{Route: stream.RouteRange, Feed: "f", Lo: lo, Hi: hi, Flags: stream.JSONAnswer})
		if err == nil {
			err = json.Unmarshal(a.Body, &js)
			a.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get("f", fmt.Sprintf("user%07d", i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := c.Do("f", reads); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("620 sequential requests opened %d connections, want 1", n)
	}
}

// TestBinaryBodyByteFlips is the byte-level property of the binary wire: a
// gateway (or anything on the path) that alters any single byte of a get or
// range body gets a decode error, a verification failure (a chain height
// other than the pinned one at the pinned seq is a forked anchor), or — when
// the byte carried nothing the proof or the pinned anchor binds (a
// publication seq moved forward, which only ever reads as "a newer view") —
// an accepted answer whose every authenticated field is the honest one.
// Never a different accepted answer.
func TestBinaryBodyByteFlips(t *testing.T) {
	_, srv := readFeed(t, 4, 3000, HandlerConfig{})
	honest := NewVerifyingClient(srv.URL)
	for _, key := range []string{"user0000007", "user0000007x"} {
		if _, err := honest.Get("f", key); err != nil {
			t.Fatal(err)
		}
	}
	pinned := honest.anchors["f"]

	var body []byte
	flipped := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		return stream.Head{Status: http.StatusOK, ContentType: ReadMediaType}, body
	})
	vc := NewVerifyingClient(flipped.URL)
	// Each mutated body meets a client pinned exactly where the honest one
	// is: an accepted forward seq must not shield the next mutation.
	repin := func() {
		vc.anchors["f"] = slices.Clone(pinned)
	}
	tally := map[string]int{}
	sweep := func(name string, good []byte, read func() (any, error), same func(honest, got any) bool) {
		t.Helper()
		body = good
		repin()
		want, err := read()
		if err != nil {
			t.Fatalf("%s: honest body rejected: %v", name, err)
		}
		for i := range good {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				body = bytes.Clone(good)
				body[i] ^= mask
				repin()
				got, err := read()
				switch {
				case errors.Is(err, wire.ErrMalformed):
					tally[name+" decode error"]++
				case errors.Is(err, ErrVerification):
					tally[name+" verification failure"]++
				case err != nil:
					t.Fatalf("%s: byte %d ^ %#x: unexpected error %v", name, i, mask, err)
				case !same(want, got):
					t.Fatalf("%s: byte %d ^ %#x: a different answer was accepted", name, i, mask)
				default:
					tally[name+" accepted, same answer"]++
				}
			}
		}
	}
	sameGet := func(honest, got any) bool {
		h, g := honest.(*query.GetResult), got.(*query.GetResult)
		return g.Key == h.Key && g.Found == h.Found && reflect.DeepEqual(g.Record, h.Record) &&
			g.Root == h.Root && g.Count == h.Count && g.Shard == h.Shard && g.Seq >= h.Seq
	}
	for _, key := range []string{"user0000007", "user0000007x"} {
		good, _ := rawGet(t, srv.URL+"/feeds/f/get?key="+key, ReadMediaType)
		sweep("get "+key, good, func() (any, error) { return vc.Get("f", key) }, sameGet)
	}
	sameRange := func(honest, got any) bool {
		h, g := honest.([]query.RangeResult), got.([]query.RangeResult)
		for i := range h {
			if g[i].Root != h[i].Root || g[i].Count != h[i].Count || g[i].Seq < h[i].Seq ||
				!reflect.DeepEqual(g[i].Range.Records, h[i].Range.Records) {
				return false
			}
		}
		return len(g) == len(h)
	}
	good, _ := rawGet(t, srv.URL+"/feeds/f/range?lo=user0000100&hi=user0000107", ReadMediaType)
	sweep("range", good, func() (any, error) { return vc.Range("f", "user0000100", "user0000107") }, sameRange)
	for outcome, n := range tally {
		t.Logf("%-45s %d", outcome, n)
	}
}

// BenchmarkReadWire prices the two encodings of the three read answers on a
// 10k-record 4-shard feed: one op is the gateway's encode plus the client's
// decode, wire-bytes the body between them.
func BenchmarkReadWire(b *testing.B) {
	g, _ := readFeed(b, 4, 10000, HandlerConfig{})
	e, err := g.Query("f")
	if err != nil {
		b.Fatal(err)
	}
	get, err := e.Get("user0004242")
	if err != nil {
		b.Fatal(err)
	}
	absent, err := e.Get("user0004242x")
	if err != nil {
		b.Fatal(err)
	}
	slices, err := e.Range("user0004242", "user0004249")
	if err != nil {
		b.Fatal(err)
	}
	answers := []struct {
		name   string
		resp   readResponse
		binary func([]byte) error
		json   func([]byte) error
	}{
		{"get", &GetResponse{ID: "f", Result: get}, decodeGetBinary, decodeJSON[GetResponse]},
		{"absent", &GetResponse{ID: "f", Result: absent}, decodeGetBinary, decodeJSON[GetResponse]},
		{"range", &RangeResponse{ID: "f", Lo: "user0004242", Hi: "user0004249", Results: slices},
			func(body []byte) error { _, err := query.DecodeRangeResults(body); return err }, decodeJSON[RangeResponse]},
	}
	for _, a := range answers {
		b.Run(a.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for b.Loop() {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(a.resp); err != nil {
					b.Fatal(err)
				}
				if err := a.json(buf.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "wire-bytes")
		})
		b.Run(a.name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = a.resp.appendRead(buf[:0]); err != nil {
					b.Fatal(err)
				}
				if err := a.binary(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wire-bytes")
		})
	}
}

func decodeGetBinary(body []byte) error { _, err := query.DecodeGetResult(body); return err }

func decodeJSON[T any](body []byte) error { var out T; return json.Unmarshal(body, &out) }

// TestVerifiedReadAllocations pins what one verified read allocates, client
// and gateway together, over a loopback Go-to-Go stream on a 4-shard feed of
// 10k records, with every key built before the count: a get of a present
// key, a get of an absent key and a range of 8 keys. A present get proves
// into its stream's storage, shares the set's value bytes until the answer
// is encoded, and decodes in place into one allocation plus copies of the
// value and the path: 4 allocations, where a detached answer and a decoder
// that copied the whole body cost 13. An absent get's and a range's proofs
// are pruned trees, built, sent, decoded and verified as one preorder buffer
// each: 4 and 28 allocations. The absent get proves its tree into the
// stream's storage too, and the range is gathered shard by shard on the
// calling goroutine; a fresh absence proof per get and a goroutine per
// shard cost 6 and 42 (9 and 42 with the whole-body copy). Counted
// with their keys formatted inside the count, frames that emulated HTTP (a
// header map, a Request and a mux match per read) cost 40 and 74 for the
// absent get and the range, a net/http round trip per read 91 and 126, and
// a graph of tree nodes 252 and 545.
func TestVerifiedReadAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("preloads a 10k-record feed; allocation counts do not hold under the race detector")
	}
	const presentBound, absentBound, rangeBound = 4, 4, 28
	_, srv := readFeed(t, 4, 10000, HandlerConfig{})
	vc := NewVerifyingClient(srv.URL)
	vc.HTTP = &http.Client{Transport: &http.Transport{}}
	t.Cleanup(vc.HTTP.CloseIdleConnections)
	const n = 260 // 50 warm-up reads, then AllocsPerRun's one plus 200
	present, absent, lo, hi := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	for i := range n {
		present[i] = fmt.Sprintf("user%07d", i*37%10000)
		absent[i] = present[i] + "x"
		first := i * 37 % 9990
		lo[i], hi[i] = fmt.Sprintf("user%07d", first), fmt.Sprintf("user%07d", first+7)
	}
	get := func(i int, found bool) {
		key := absent[i]
		if found {
			key = present[i]
		}
		res, err := vc.Get("f", key)
		if err != nil || res.Found != found {
			t.Fatalf("get %q: found %v, %v", key, res != nil && res.Found, err)
		}
	}
	scan := func(i int) {
		if _, err := vc.Range("f", lo[i], hi[i]); err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
	}
	for i := range 50 { // warm the pools, the connection, the anchors
		get(i, true)
		get(i, false)
		scan(i)
	}
	count := func(read func(int)) float64 {
		i := 50
		return testing.AllocsPerRun(200, func() { read(i); i++ })
	}
	presentAllocs := count(func(i int) { get(i, true) })
	absentAllocs := count(func(i int) { get(i, false) })
	rangeAllocs := count(scan)
	t.Logf("%.1f allocations per present get, %.1f per absent get, %.1f per 8-key range", presentAllocs, absentAllocs, rangeAllocs)
	for _, c := range []struct {
		read   string
		allocs float64
		bound  int
	}{{"present get", presentAllocs, presentBound}, {"absent get", absentAllocs, absentBound}, {"8-key range", rangeAllocs, rangeBound}} {
		if c.allocs > float64(c.bound) {
			t.Errorf("%.1f allocations per %s, want at most %d", c.allocs, c.read, c.bound)
		}
	}
}
