package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"grub/internal/wire"
)

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocLimit bounds what reading or decoding a frame of p's size may
// allocate: the buffer, a header pair's map entry and strings per 2 bytes at
// worst; the constant absorbs the runtime's own allocations between the two
// readings.
func allocLimit(p []byte) uint64 { return uint64(64*len(p) + 64<<10) }

// frames are request frames of the hot routes, of a JSON-bodied route, of
// the snapshot route with its shard and of the last route, each with every
// field set, and an answer frame with every field of its head set.
func frames() [][]byte {
	const ops = "application/x-grub-ops"
	typed := func(r Request) []byte {
		r.Feed, r.Epoch, r.Flags, r.TraceID, r.Parent = "f", 7, Forwarded|JSONBody|JSONAnswer, "trace0123456789a", "n1:forward"
		return AppendRequest(nil, &r)
	}
	return [][]byte{
		typed(Request{Route: RouteOps, Body: []byte{1, 2, 3}}),
		typed(Request{Route: RouteGet, Key: "k"}),
		typed(Request{Route: RouteRange, Lo: "a", Hi: "z"}),
		typed(Request{Route: RouteLog, Shard: 2, From: 300, Max: 16}),
		typed(Request{Route: RouteCreateFeed, Body: []byte(`{"id":"g","shards":2}`)}),
		typed(Request{Route: RouteReplSnapshot, Shard: 3}),
		typed(Request{Route: NumRoutes - 1, Body: []byte(`{"target":"http://b"}`)}),
		append(AppendAnswer(nil, &Head{Status: 421, ContentType: ops, Leader: "http://a", RetryAfter: 1,
			TraceID: "trace0123456789a", Spans: `[{"stage":"apply"}]`}, 4), "body"...),
	}
}

// FuzzStreamFrame: arbitrary bytes as a stream frame, in either direction,
// must decode or fail without panicking and without an allocation sized from
// a length or count they claim; a frame that decodes re-encodes to one that
// decodes the same.
func FuzzStreamFrame(f *testing.F) {
	withLen := func(p []byte) []byte { return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...) }
	for _, p := range frames() {
		f.Add(p)
	}
	req := frames()[0]
	f.Add(req[:len(req)-3])                                                            // truncated
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<31), byte(RouteStats), 1, 'f')) // oversize length
	f.Add(withLen([]byte{byte(RouteStats), 0x81, 0x00, 'f', 0, 0, 0, 0}))              // non-minimal string length
	f.Add(withLen([]byte{byte(RouteReplSnapshot), 1, 'f', 0x90, 0, 0, 0, 0}))          // shard past the bytes
	f.Add(withLen([]byte{0xc8, 0x81, 0x00, 0, 0, 0, 0, 0}))                            // non-minimal status
	f.Add(withLen([]byte{0, 1, 'f', 0, 0, 0, 0}))                                      // route 0
	f.Add(withLen([]byte{byte(NumRoutes), 1, 'f', 0, 0, 0, 0}))                        // unknown route
	f.Add(withLen([]byte{byte(RouteOps), 1, 'f', 0, 0x80, 0, 0}))                      // unknown flag
	f.Add([]byte(Goaway))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf *[]byte
		var err error
		if n := allocated(func() { buf, err = ReadFrame(bufio.NewReader(bytes.NewReader(data)), 1<<20) }); n > allocLimit(data) {
			t.Fatalf("reading a %d-byte frame allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		p := *buf
		defer PutBuf(buf)
		var req Request
		if n := allocated(func() { err = DecodeRequest(p, &req) }); n > allocLimit(p) {
			t.Fatalf("decoding a %d-byte request allocated %d bytes", len(p), n)
		}
		if err == nil {
			var again Request
			if err := DecodeRequest(AppendRequest(nil, &req)[4:], &again); err != nil || !bytes.Equal(again.Body, req.Body) {
				t.Fatalf("request re-encodes to one with body %q (%v), want %q", again.Body, err, req.Body)
			}
			again.Body, req.Body = nil, nil
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request re-encodes to %+v, want %+v", again, req)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("request decode error %v is not ErrMalformed", err)
		}
		var hd Head
		var body []byte
		if n := allocated(func() { hd, body, err = DecodeAnswer(p) }); n > allocLimit(p) {
			t.Fatalf("decoding a %d-byte answer allocated %d bytes", len(p), n)
		}
		if err == nil {
			h2, b2, err := DecodeAnswer(append(AppendAnswer(nil, &hd, len(body)), body...)[4:])
			if err != nil || h2 != hd || !bytes.Equal(b2, body) {
				t.Fatalf("answer re-encodes to %+v %q (%v), want %+v %q", h2, b2, err, hd, body)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("answer decode error %v is not ErrMalformed", err)
		}
	})
}

// TestAppendAfterBytes: a frame appended after other bytes leaves them as they
// are and reads back whole from where it starts.
func TestAppendAfterBytes(t *testing.T) {
	b := AppendRequest([]byte("xyz"), &Request{Route: RouteStats, Feed: "f", TraceID: "t"})
	b = AppendRequest(b, &Request{Route: RouteGet, Feed: "f", Key: "k"})
	b = append(AppendAnswer(b, &Head{Status: 201, Leader: "http://a"}, 2), "ok"...)
	if string(b[:3]) != "xyz" {
		t.Fatalf("prefix became %q", b[:3])
	}
	br := bufio.NewReader(bytes.NewReader(b[3:]))
	var req Request
	in, err := ReadFrame(br, 1<<20)
	if err == nil {
		err = DecodeRequest(*in, &req)
	}
	if err != nil || req.Route != RouteStats || req.Feed != "f" || req.TraceID != "t" || len(req.Body) != 0 {
		t.Fatalf("request read back as %+v (%v)", req, err)
	}
	if in, err = ReadFrame(br, 1<<20); err == nil {
		err = DecodeRequest(*in, &req)
	}
	if err != nil || req.Route != RouteGet || req.Feed != "f" || req.Key != "k" || len(req.Body) != 0 {
		t.Fatalf("typed request read back as %+v (%v)", req, err)
	}
	if in, err = ReadFrame(br, 1<<20); err != nil {
		t.Fatal(err)
	}
	if hd, body, err := DecodeAnswer(*in); err != nil || hd.Status != 201 || hd.Leader != "http://a" || string(body) != "ok" {
		t.Fatalf("answer read back as %+v %q (%v)", hd, body, err)
	}
}

// TestTypedFrameAllocations pins that a typed get, request and answer, costs
// no allocation to encode, read and decode on a stream that has served its
// feed before, except the key string the gateway's handler keeps.
func TestTypedFrameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	out := GetBuf()
	defer PutBuf(out)
	var wb bytes.Reader
	br := bufio.NewReader(&wb)
	proof := make([]byte, 600)
	var req Request
	exchange := func() {
		*out = AppendRequest((*out)[:0], &Request{Route: RouteGet, Feed: "feed-7", Key: "user0001234"})
		*out = append(AppendAnswer(*out, &Head{Status: http.StatusOK, ContentType: ReadMediaType}, len(proof)), proof...)
		wb.Reset(*out)
		br.Reset(&wb)
		in, err := ReadFrame(br, 1<<20)
		if err == nil {
			err = DecodeRequest(*in, &req)
			PutBuf(in)
		}
		if err == nil {
			in, err = ReadFrame(br, 1<<20)
		}
		if err == nil {
			var hd Head
			hd, _, err = DecodeAnswer(*in)
			if hd.ContentType != ReadMediaType {
				t.Fatalf("answer type %q", hd.ContentType)
			}
			PutBuf(in)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if req.Feed != "feed-7" || req.Key != "user0001234" {
		t.Fatalf("request read back as %+v", req)
	}
	if n := testing.AllocsPerRun(100, exchange); n > 1 {
		t.Errorf("%.1f allocations per typed get exchange, want at most 1 (the key)", n)
	}
}

// BenchmarkFrameRoundTrip prices one exchange's framing, both directions: a
// 16-op-sized typed batch encoded, read and decoded, and its answer likewise.
func BenchmarkFrameRoundTrip(b *testing.B) {
	body := make([]byte, 600)
	var wb bytes.Buffer
	br := bufio.NewReader(&wb)
	var req Request
	b.ReportAllocs()
	for b.Loop() {
		out := GetBuf()
		*out = AppendRequest(*out, &Request{Route: RouteOps, Feed: "f", Body: body})
		wb.Write(*out)
		*out = append(AppendAnswer((*out)[:0], &Head{Status: 200, ContentType: OpsMediaType}, len(body)), body...)
		wb.Write(*out)
		PutBuf(out)
		in, err := ReadFrame(br, 1<<20)
		if err == nil {
			err = DecodeRequest(*in, &req)
			PutBuf(in)
		}
		if err == nil {
			in, err = ReadFrame(br, 1<<20)
		}
		if err == nil {
			_, _, err = DecodeAnswer(*in)
			PutBuf(in)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
