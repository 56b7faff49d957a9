// Package stream is the Go-to-Go stream (docs/API.md, "Go-to-Go stream"):
// an HTTP connection upgraded to carry one length-framed request at a time,
// each answered in order. It alone knows the frame layout, and how a typed
// request reads as HTTP. Pool is the client end every Go-to-Go hop sends
// through; the gateway's end (server.streamHandler) uses the codec below. A
// frame is a 4-byte big-endian length and that many bytes:
//
//	request  byte route, then
//	           route 0   string method, string request-URI, int n, n × (string key, string value)
//	           typed     string feed, arguments, uint epoch, byte flags, string trace, string parent
//	         then the body
//	answer   int status, string content-type, string leader, int retry-after,
//	         string trace, string spans, body
//
// A typed route's arguments are: ops none; get string key; range string lo,
// string hi; log int shard, uint from, int max. The body is the rest of the
// frame. An empty frame is GOAWAY: the gateway served no request after its
// last answer and will serve none.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"grub/internal/obs"
	"grub/internal/wire"
)

// Proto is the Upgrade token a client offers and a gateway answers with. A
// gateway that speaks another version ignores the offer and answers over
// HTTP.
const Proto = "grub-stream/2"

// ErrFrameTooLarge: a frame claims more bytes than ReadFrame's limit.
var ErrFrameTooLarge = errors.New("stream: frame too large")

// Goaway is the GOAWAY frame.
const Goaway = "\x00\x00\x00\x00"

// Route is a request frame's first byte. RouteHTTP carries any request as
// HTTP has it; each other route is one of the gateway's hot routes, its
// arguments in fixed fields.
type Route byte

const (
	RouteHTTP  Route = iota // any route: method, request-URI, header pairs
	RouteOps                // POST /feeds/{id}/ops
	RouteGet                // GET /feeds/{id}/get
	RouteRange              // GET /feeds/{id}/range
	RouteLog                // GET /repl/feeds/{id}/shards/{shard}/log
	NumRoutes
)

// Flag bits of a request.
const (
	Forwarded  byte = 1 << iota // a cluster node relays the request to the feed's owner
	JSONBody                    // the body is JSON, not the route's binary encoding
	JSONAnswer                  // the answer is to be JSON, not the route's binary encoding
)

// The media types of the bodies the routes speak.
const (
	JSONMediaType = "application/json"
	OpsMediaType  = "application/x-grub-ops"
	ReadMediaType = "application/x-grub-read"
	LogMediaType  = "application/x-grub-repl"
)

// The headers that carry a request's placement epoch and Forwarded flag over
// HTTP.
const (
	EpochHeader     = "X-Grub-Cluster-Epoch"
	ForwardedHeader = "X-Grub-Cluster-Forwarded"
)

var media = [NumRoutes]string{RouteOps: OpsMediaType, RouteGet: ReadMediaType, RouteRange: ReadMediaType, RouteLog: LogMediaType}

// Media is the binary encoding a typed route's answer is in, and, for
// RouteOps, its body ("" for RouteHTTP).
func (rt Route) Media() string {
	if rt >= NumRoutes {
		return ""
	}
	return media[rt]
}

// Request is one request, in either layout.
type Request struct {
	Route Route
	// RouteHTTP: the request line and every header but those the fields
	// below stand for.
	Method, URI string
	Header      http.Header
	// A typed route's feed and arguments.
	Feed   string
	Key    string // get
	Lo, Hi string // range
	Shard  int    // log
	From   uint64 // log: the cursor
	Max    int    // log: the page cap; 0 takes the gateway's
	// Either layout: a RouteHTTP frame carries these as headers, as HTTP does.
	Epoch   uint64 // the sender's placement epoch for the feed
	Flags   byte
	TraceID string // obs.TraceHeader
	Parent  string // obs.ParentSpanHeader
	Body    []byte
}

// method is r's HTTP method.
func (r *Request) method() string {
	switch r.Route {
	case RouteHTTP:
		return r.Method
	case RouteOps:
		return http.MethodPost
	}
	return http.MethodGet
}

// uri is r's HTTP request-URI.
func (r *Request) uri() string {
	p := "/feeds/" + url.PathEscape(r.Feed)
	switch r.Route {
	case RouteHTTP:
		return r.URI
	case RouteOps:
		return p + "/ops"
	case RouteGet:
		return p + "/get?key=" + url.QueryEscape(r.Key)
	case RouteRange:
		return p + "/range?lo=" + url.QueryEscape(r.Lo) + "&hi=" + url.QueryEscape(r.Hi)
	}
	p = "/repl" + p + "/shards/" + strconv.Itoa(r.Shard) + "/log?from=" + strconv.FormatUint(r.From, 10)
	if r.Max > 0 {
		p += "&max=" + strconv.Itoa(r.Max)
	}
	return p
}

// String is r's HTTP method and request-URI, as error messages name it.
func (r *Request) String() string { return r.method() + " " + r.uri() }

// idempotent reports whether r may go again after its connection failed
// before any of its answer came.
func (r *Request) idempotent() bool { return r.method() == http.MethodGet }

// headers calls f with each header r has over HTTP, one pair per value: a
// RouteHTTP request's Header, a typed route's Content-Type and Accept, and
// the fields either layout sends as headers there.
func (r *Request) headers(f func(k, v string)) {
	for k, vs := range r.Header {
		for _, v := range vs {
			f(k, v)
		}
	}
	if media := r.Route.Media(); media != "" {
		if r.Route == RouteOps {
			ct := media
			if r.Flags&JSONBody != 0 {
				ct = JSONMediaType
			}
			f("Content-Type", ct)
		}
		if r.Route == RouteLog || r.Flags&JSONAnswer == 0 {
			f("Accept", media)
		}
	}
	if r.Epoch != 0 {
		f(EpochHeader, strconv.FormatUint(r.Epoch, 10))
	}
	if r.Flags&Forwarded != 0 {
		f(ForwardedHeader, "1")
	}
	if r.TraceID != "" {
		f(obs.TraceHeader, r.TraceID)
	}
	if r.Parent != "" {
		f(obs.ParentSpanHeader, r.Parent)
	}
}

// Head is an answer's status and the fields every answer frame carries,
// which HTTP sends as headers.
type Head struct {
	Status      int
	ContentType string
	Leader      string // the node that accepts the feed's writes (421, 502, 503)
	RetryAfter  int    // seconds; 0: none
	TraceID     string // obs.TraceHeader
	Spans       string // obs.SpanHeader: a forwarded batch's spans
}

// HeadOf reads a head from an HTTP answer's status and header.
func HeadOf(status int, h http.Header) Head {
	ra, _ := strconv.Atoi(h.Get("Retry-After"))
	return Head{Status: status, ContentType: h.Get("Content-Type"), Leader: h.Get("Leader"),
		RetryAfter: ra, TraceID: h.Get(obs.TraceHeader), Spans: h.Get(obs.SpanHeader)}
}

// SetHeader sets the headers that stand for hd's fields on h.
func (hd *Head) SetHeader(h http.Header) {
	set := func(k, v string) {
		if v != "" {
			h.Set(k, v)
		}
	}
	set("Content-Type", hd.ContentType)
	set("Leader", hd.Leader)
	if hd.RetryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(hd.RetryAfter))
	}
	set(obs.TraceHeader, hd.TraceID)
	set(obs.SpanHeader, hd.Spans)
}

// bufPool recycles the buffers binary bodies and frames are encoded into and
// read into, on both sides of the wire. A buffer that grew past maxPooledBuf
// is dropped rather than pinned by the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBuf = 64 << 10

// GetBuf returns an empty pooled buffer, which the caller PutBufs.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf gives a buffer back to the pool; b must not be used after.
func PutBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// ReadPooled reads r, to EOF or to limit bytes, into a pooled buffer the
// caller PutBufs. The buffer grows as bytes arrive, never to limit.
func ReadPooled(r io.Reader, limit int) (*[]byte, error) {
	buf := GetBuf()
	b := *buf
	for len(b) < limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = b
			PutBuf(buf)
			return nil, err
		}
	}
	*buf = b
	return buf, nil
}

// ReadFrame reads one frame's payload into a pooled buffer the caller
// PutBufs. The buffer grows as bytes arrive, never to the length the frame
// claims.
func ReadFrame(br *bufio.Reader, limit int64) (*[]byte, error) {
	l, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(l) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(l))
	br.Discard(4)
	if int64(n) > limit {
		return nil, ErrFrameTooLarge
	}
	buf, err := ReadPooled(br, n)
	if err == nil && len(*buf) < n {
		PutBuf(buf)
		return nil, io.ErrUnexpectedEOF
	}
	return buf, err
}

// AppendRequest appends r's request frame to b.
func AppendRequest(b []byte, r *Request) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, byte(r.Route))
	if r.Route == RouteHTTP {
		b = wire.AppendString(wire.AppendString(b, r.Method), r.URI)
		n := 0
		r.headers(func(string, string) { n++ })
		b = wire.AppendInt(b, n)
		r.headers(func(k, v string) { b = wire.AppendString(wire.AppendString(b, k), v) })
	} else {
		b = wire.AppendString(b, r.Feed)
		switch r.Route {
		case RouteGet:
			b = wire.AppendString(b, r.Key)
		case RouteRange:
			b = wire.AppendString(wire.AppendString(b, r.Lo), r.Hi)
		case RouteLog:
			b = wire.AppendInt(wire.AppendUint(wire.AppendInt(b, r.Shard), r.From), r.Max)
		}
		b = append(wire.AppendUint(b, r.Epoch), r.Flags)
		b = wire.AppendString(wire.AppendString(b, r.TraceID), r.Parent)
	}
	b = append(b, r.Body...)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// AppendAnswer appends an answer frame's length and head to b, counting
// bodyLen bytes of body to come.
func AppendAnswer(b []byte, hd *Head, bodyLen int) []byte {
	start := len(b)
	b = wire.AppendString(wire.AppendInt(append(b, 0, 0, 0, 0), hd.Status), hd.ContentType)
	b = wire.AppendInt(wire.AppendString(b, hd.Leader), hd.RetryAfter)
	b = wire.AppendString(wire.AppendString(b, hd.TraceID), hd.Spans)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4+bodyLen))
	return b
}

// str reads a string, and returns one of known, not a copy, when it spells
// it.
func str(d *wire.Reader, known ...string) string {
	b := d.Bytes(d.Int())
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// readHeader decodes header pairs, their count checked against the bytes left
// (a pair takes two at least) before anything is sized from it.
func readHeader(d *wire.Reader) http.Header {
	n := d.Int()
	if n > d.Len()/2 {
		d.Fail("%d header pairs in %d bytes", n, d.Len())
		return nil
	}
	h := make(http.Header, n)
	for range n {
		k := d.OwnStr()
		h.Add(k, d.OwnStr())
	}
	return h
}

// DecodeRequest decodes a request frame's payload into r; r.Body aliases p.
// A typed frame naming the feed r already holds keeps r's string for it, so
// a stream serving one feed allocates none per frame.
func DecodeRequest(p []byte, r *Request) error {
	d := wire.Borrow(p)
	feed := r.Feed
	*r = Request{Route: Route(d.Byte())}
	switch {
	case r.Route == RouteHTTP:
		r.Method, r.URI = d.OwnStr(), d.OwnStr()
		r.Header = readHeader(d)
	case r.Route < NumRoutes:
		r.Feed = str(d, feed)
		switch r.Route {
		case RouteGet:
			r.Key = d.OwnStr()
		case RouteRange:
			r.Lo, r.Hi = d.OwnStr(), d.OwnStr()
		case RouteLog:
			r.Shard, r.From, r.Max = d.Int(), d.Uint(), d.Int()
		}
		r.Epoch, r.Flags = d.Uint(), d.Byte()
		if r.Flags&^(Forwarded|JSONBody|JSONAnswer) != 0 {
			d.Fail("request flags %#x", r.Flags)
		}
		r.TraceID, r.Parent = d.OwnStr(), d.OwnStr()
	default:
		d.Fail("route %d", r.Route)
	}
	r.Body = d.Rest()
	return d.Err()
}

// DecodeAnswer decodes an answer frame's payload; body aliases p. A
// Content-Type one of the routes speaks costs no allocation.
func DecodeAnswer(p []byte) (hd Head, body []byte, err error) {
	d := wire.Borrow(p)
	if hd.Status = d.Int(); hd.Status < 100 || hd.Status > 999 {
		d.Fail("status %d", hd.Status)
	}
	hd.ContentType = str(d, JSONMediaType, OpsMediaType, ReadMediaType, LogMediaType)
	hd.Leader, hd.RetryAfter = d.OwnStr(), d.Int()
	hd.TraceID, hd.Spans = d.OwnStr(), d.OwnStr()
	return hd, d.Rest(), d.Err()
}
