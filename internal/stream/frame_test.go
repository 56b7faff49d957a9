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

// FuzzStreamFrame: arbitrary bytes as a stream frame, in either direction,
// must decode or fail without panicking and without an allocation sized from
// a length or count they claim; a frame that decodes re-encodes to one that
// decodes the same.
func FuzzStreamFrame(f *testing.F) {
	withLen := func(p []byte) []byte { return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...) }
	const ops = "application/x-grub-ops"
	req := AppendRequest(nil, "POST", "/feeds/f/ops", []byte{1, 2, 3}, "Content-Type", ops, "Accept", ops)
	ans := append(AppendAnswer(nil, 200, http.Header{"Content-Type": {ops}, "Leader": {"http://a", "http://b"}}, 4), "body"...)
	f.Add(req)
	f.Add(ans)
	f.Add(req[:len(req)-3])                                                           // truncated
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<31), 'G', 'E', 'T'))           // oversize length
	f.Add(withLen(append(wire.AppendString(wire.AppendString(nil, "GET"), "/"), 90))) // header count past the bytes
	f.Add(withLen([]byte{0x83, 0x00, 'G', 'E', 'T', 1, '/', 0}))                      // non-minimal string length
	f.Add(withLen([]byte{0xc8, 0x81, 0x00, 0}))                                       // non-minimal status
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
		var method, uri string
		var h http.Header
		var body []byte
		if n := allocated(func() { method, uri, h, body, err = DecodeRequest(p) }); n > allocLimit(p) {
			t.Fatalf("decoding a %d-byte request allocated %d bytes", len(p), n)
		}
		if err == nil {
			var pairs []string
			for k, vs := range h {
				for _, v := range vs {
					pairs = append(pairs, k, v)
				}
			}
			m2, u2, h2, b2, err := DecodeRequest(AppendRequest(nil, method, uri, body, pairs...)[4:])
			if err != nil || m2 != method || u2 != uri || !reflect.DeepEqual(h2, h) || !bytes.Equal(b2, body) {
				t.Fatalf("request re-encodes to %q %q %v %q (%v), want %q %q %v %q", m2, u2, h2, b2, err, method, uri, h, body)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("request decode error %v is not ErrMalformed", err)
		}
		var status int
		if n := allocated(func() { status, h, body, err = DecodeAnswer(p) }); n > allocLimit(p) {
			t.Fatalf("decoding a %d-byte answer allocated %d bytes", len(p), n)
		}
		if err == nil {
			s2, h2, b2, err := DecodeAnswer(append(AppendAnswer(nil, status, h, len(body)), body...)[4:])
			if err != nil || s2 != status || !reflect.DeepEqual(h2, h) || !bytes.Equal(b2, body) {
				t.Fatalf("answer re-encodes to %d %v %q (%v), want %d %v %q", s2, h2, b2, err, status, h, body)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("answer decode error %v is not ErrMalformed", err)
		}
	})
}

// TestAppendAfterBytes: a frame appended after other bytes leaves them as they
// are and reads back whole from where it starts.
func TestAppendAfterBytes(t *testing.T) {
	b := AppendRequest([]byte("xyz"), "GET", "/feeds/f/stats", nil, "Accept", "a")
	b = append(AppendAnswer(b, 201, http.Header{"Leader": {"http://a"}}, 2), "ok"...)
	if string(b[:3]) != "xyz" {
		t.Fatalf("prefix became %q", b[:3])
	}
	br := bufio.NewReader(bytes.NewReader(b[3:]))
	in, err := ReadFrame(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m, u, h, body, err := DecodeRequest(*in); err != nil || m != "GET" || u != "/feeds/f/stats" || h.Get("Accept") != "a" || len(body) != 0 {
		t.Fatalf("request read back as %q %q %v %q (%v)", m, u, h, body, err)
	}
	if in, err = ReadFrame(br, 1<<20); err != nil {
		t.Fatal(err)
	}
	if s, h, body, err := DecodeAnswer(*in); err != nil || s != 201 || h.Get("Leader") != "http://a" || string(body) != "ok" {
		t.Fatalf("answer read back as %d %v %q (%v)", s, h, body, err)
	}
}

// BenchmarkFrameRoundTrip prices one exchange's framing, both directions: a
// 16-op-sized request encoded, read and decoded, and its answer likewise.
func BenchmarkFrameRoundTrip(b *testing.B) {
	body := make([]byte, 600)
	h := http.Header{"Content-Type": {"application/x-grub-ops"}}
	var wb bytes.Buffer
	br := bufio.NewReader(&wb)
	b.ReportAllocs()
	for b.Loop() {
		out := GetBuf()
		*out = AppendRequest(*out, "POST", "/feeds/f/ops", body, "Content-Type", "application/x-grub-ops", "Accept", "application/x-grub-ops")
		wb.Write(*out)
		*out = append(AppendAnswer((*out)[:0], 200, h, len(body)), body...)
		wb.Write(*out)
		PutBuf(out)
		in, err := ReadFrame(br, 1<<20)
		if err == nil {
			_, _, _, _, err = DecodeRequest(*in)
			PutBuf(in)
		}
		if err == nil {
			in, err = ReadFrame(br, 1<<20)
		}
		if err == nil {
			_, _, _, err = DecodeAnswer(*in)
			PutBuf(in)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
