// Package stream is the Go-to-Go stream (docs/API.md, "Go-to-Go stream"): a
// connection opened with GET /stream that carries one length-framed request
// at a time, each answered in order. It holds the gateway's route table and
// the frame layout. Pool is the client end every Go-to-Go hop sends through;
// the gateway's end (server.api.openStream) uses the codec below. A frame is
// a 4-byte big-endian length and that many bytes:
//
//	request  byte route, string feed, arguments, uint epoch, byte flags,
//	         string trace, string parent, body
//	answer   int status, string content-type, string leader, int retry-after,
//	         string trace, string spans, body
//
// A route's arguments are: get string key; range string lo, string hi; log
// int shard, uint from, int max; repl snapshot int shard; every other route
// none. The body is the rest of the frame. An empty frame is GOAWAY: the
// gateway served no request after its last answer and will serve none.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"strings"
	"sync"

	"grub/internal/wire"
)

// Proto is the Upgrade token a client offers at Path and a gateway answers
// with. A gateway refuses an offer of another version with 426.
const Proto = "grub-stream/4"

// Path is where a client opens a stream: a GET with no body, offering Proto.
const Path = "/stream"

// ErrFrameTooLarge: a frame claims more bytes than ReadFrame's limit.
var ErrFrameTooLarge = errors.New("stream: frame too large")

// Goaway is the GOAWAY frame.
const Goaway = "\x00\x00\x00\x00"

// Route is one of the gateway's routes, a request frame's first byte. No
// route is 0.
type Route byte

const (
	RouteOps Route = 1 + iota
	RouteGet
	RouteRange
	RouteLog
	RouteCreateFeed
	RouteListFeeds
	RouteStats
	RouteLatency
	RouteShards
	RouteSnapshot
	RouteInfo
	RouteHealth
	RouteMetrics
	RouteReplFeeds
	RouteReplSnapshot
	RouteRoots
	RouteTrace
	RouteCloseFeed
	RouteHeartbeat
	RouteClusterStatus
	RouteClusterLoad
	RouteClusterMetrics
	RouteMove
	NumRoutes
)

// routes is the gateway's route table: each route's "METHOD /path" pattern,
// which the gateway's mux registers, and the binary encoding the route
// answers in when asked to ("" for the routes that speak only JSON or text).
var routes = [NumRoutes]struct{ pattern, media string }{
	RouteOps:            {"POST /feeds/{id}/ops", OpsMediaType},
	RouteGet:            {"GET /feeds/{id}/get", ReadMediaType},
	RouteRange:          {"GET /feeds/{id}/range", ReadMediaType},
	RouteLog:            {"GET /repl/feeds/{id}/shards/{shard}/log", LogMediaType},
	RouteCreateFeed:     {"POST /feeds", ""},
	RouteListFeeds:      {"GET /feeds", ""},
	RouteStats:          {"GET /feeds/{id}/stats", ""},
	RouteLatency:        {"GET /feeds/{id}/stats/latency", ""},
	RouteShards:         {"GET /feeds/{id}/shards", ""},
	RouteSnapshot:       {"POST /feeds/{id}/snapshot", ""},
	RouteInfo:           {"GET /info", ""},
	RouteHealth:         {"GET /healthz", ""},
	RouteMetrics:        {"GET /metrics", ""},
	RouteReplFeeds:      {"GET /repl/feeds", ""},
	RouteReplSnapshot:   {"GET /repl/feeds/{id}/shards/{shard}/snapshot", ImageMediaType},
	RouteRoots:          {"GET /feeds/{id}/roots", ""},
	RouteTrace:          {"GET /feeds/{id}/trace", ""},
	RouteCloseFeed:      {"DELETE /feeds/{id}", ""},
	RouteHeartbeat:      {"POST /cluster/heartbeat", ""},
	RouteClusterStatus:  {"GET /cluster/status", ""},
	RouteClusterLoad:    {"GET /cluster/load", ""},
	RouteClusterMetrics: {"GET /cluster/metrics", ""},
	RouteMove:           {"POST /cluster/feeds/{id}/move", ""},
}

// Flag bits of a request.
const (
	Forwarded  byte = 1 << iota // a cluster node relays the request to the feed's owner
	JSONBody                    // the body is JSON, not the route's binary encoding
	JSONAnswer                  // the answer is to be JSON, not the route's binary encoding
)

// The media types of the bodies the routes speak.
const (
	JSONMediaType  = "application/json"
	OpsMediaType   = "application/x-grub-ops"
	ReadMediaType  = "application/x-grub-read"
	LogMediaType   = "application/x-grub-repl"
	ImageMediaType = "application/x-grub-image"
)

// Pattern is rt's "METHOD /path" pattern.
func (rt Route) Pattern() string { return routes[rt].pattern }

// Media is the binary encoding rt's answer is in and, for RouteOps, its body
// ("" when it has none).
func (rt Route) Media() string { return routes[rt].media }

// Request is one request: its route, the route's feed and arguments, and
// what every request carries.
type Request struct {
	Route   Route
	Feed    string
	Key     string // get
	Lo, Hi  string // range
	Shard   int    // log, repl snapshot
	From    uint64 // log: the cursor
	Max     int    // log: the page cap; 0 takes the gateway's
	Epoch   uint64 // the sender's placement epoch for the feed
	Flags   byte
	TraceID string // obs.TraceHeader
	Parent  string // the span a forwarded batch's spans hang under ("node:stage")
	Body    []byte
}

// String names r's route and feed, as error messages do.
func (r *Request) String() string {
	if r.Feed == "" {
		return r.Route.Pattern()
	}
	return r.Route.Pattern() + " feed " + strconv.Quote(r.Feed)
}

// idempotent reports whether r may go again after its connection failed
// before any of its answer came.
func (r *Request) idempotent() bool { return strings.HasPrefix(r.Route.Pattern(), "GET ") }

// Head is an answer's status and the fields every answer frame carries.
type Head struct {
	Status      int
	ContentType string
	Leader      string // the node that accepts the feed's writes (421, 502, 503)
	RetryAfter  int    // seconds; 0: none
	TraceID     string // obs.TraceHeader
	Spans       string // a forwarded batch's spans (obs.EncodeSpans)
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
	buf := GetBuf()
	b := *buf
	for len(b) < n && err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var m int
		m, err = br.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
	}
	*buf = b
	if len(b) < n {
		PutBuf(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// AppendRequest appends r's request frame to b.
func AppendRequest(b []byte, r *Request) []byte {
	start := len(b)
	b = wire.AppendString(append(b, 0, 0, 0, 0, byte(r.Route)), r.Feed)
	switch r.Route {
	case RouteGet:
		b = wire.AppendString(b, r.Key)
	case RouteRange:
		b = wire.AppendString(wire.AppendString(b, r.Lo), r.Hi)
	case RouteLog:
		b = wire.AppendInt(wire.AppendUint(wire.AppendInt(b, r.Shard), r.From), r.Max)
	case RouteReplSnapshot:
		b = wire.AppendInt(b, r.Shard)
	}
	b = append(wire.AppendUint(b, r.Epoch), r.Flags)
	b = wire.AppendString(wire.AppendString(b, r.TraceID), r.Parent)
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

// DecodeRequest decodes a request frame's payload into r; r.Body aliases p.
// A frame naming the feed r already holds keeps r's string for it, so a
// stream serving one feed allocates none per frame.
func DecodeRequest(p []byte, r *Request) error {
	d := wire.Borrow(p)
	feed := r.Feed
	*r = Request{Route: Route(d.Byte())}
	if r.Route == 0 || r.Route >= NumRoutes {
		d.Fail("route %d", r.Route)
		return d.Err()
	}
	r.Feed = str(d, feed)
	switch r.Route {
	case RouteGet:
		r.Key = d.OwnStr()
	case RouteRange:
		r.Lo, r.Hi = d.OwnStr(), d.OwnStr()
	case RouteLog:
		r.Shard, r.From, r.Max = d.Int(), d.Uint(), d.Int()
	case RouteReplSnapshot:
		r.Shard = d.Int()
	}
	r.Epoch, r.Flags = d.Uint(), d.Byte()
	if r.Flags&^(Forwarded|JSONBody|JSONAnswer) != 0 {
		d.Fail("request flags %#x", r.Flags)
	}
	r.TraceID, r.Parent = d.OwnStr(), d.OwnStr()
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
	hd.ContentType = str(d, JSONMediaType, OpsMediaType, ReadMediaType, LogMediaType, ImageMediaType)
	hd.Leader, hd.RetryAfter = d.OwnStr(), d.Int()
	hd.TraceID, hd.Spans = d.OwnStr(), d.OwnStr()
	return hd, d.Rest(), d.Err()
}
