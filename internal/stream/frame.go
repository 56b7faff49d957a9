// Package stream is the Go-to-Go stream (docs/API.md, "Go-to-Go stream"):
// an HTTP connection upgraded to carry one length-framed request at a time,
// each answered in order. It alone knows the frame layout. Pool is the
// client end every Go-to-Go hop sends through; the gateway's end
// (server.streamHandler) uses the codec below. A frame is a 4-byte
// big-endian length and that many bytes:
//
//	request  string method, string request-URI, int n, n × (string key, string value), body
//	answer   int status, int n, n × (string key, string value), body
//
// The body is the rest of the frame. An empty frame is GOAWAY: the gateway
// served no request after its last answer and will serve none.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"sync"

	"grub/internal/wire"
)

// Proto is the Upgrade token a client offers and a gateway answers with.
const Proto = "grub-stream/1"

// ErrFrameTooLarge: a frame claims more bytes than ReadFrame's limit.
var ErrFrameTooLarge = errors.New("stream: frame too large")

// Goaway is the GOAWAY frame.
const Goaway = "\x00\x00\x00\x00"

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

// ReadPooled reads r to EOF into a pooled buffer, which the caller PutBufs.
func ReadPooled(r io.Reader) (*[]byte, error) {
	buf := GetBuf()
	b := *buf
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err != io.EOF {
				PutBuf(buf)
				return nil, err
			}
			return buf, nil
		}
	}
}

// ReadFrame reads one frame's payload into a pooled buffer the caller
// PutBufs. The buffer grows as bytes arrive, never to the length the frame
// claims.
func ReadFrame(br *bufio.Reader, limit int64) (*[]byte, error) {
	var l [4]byte
	if _, err := io.ReadFull(br, l[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(l[:]))
	if n > limit {
		return nil, ErrFrameTooLarge
	}
	buf, err := ReadPooled(&io.LimitedReader{R: br, N: n})
	if err == nil && int64(len(*buf)) < n {
		PutBuf(buf)
		return nil, io.ErrUnexpectedEOF
	}
	return buf, err
}

// AppendRequest appends a request frame to b; pairs alternate header keys and
// values.
func AppendRequest(b []byte, method, uri string, body []byte, pairs ...string) []byte {
	start := len(b)
	b = wire.AppendInt(wire.AppendString(wire.AppendString(append(b, 0, 0, 0, 0), method), uri), len(pairs)/2)
	for _, s := range pairs {
		b = wire.AppendString(b, s)
	}
	b = append(b, body...)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// AppendAnswer appends an answer frame's length, status and header to b,
// counting bodyLen bytes of body to come.
func AppendAnswer(b []byte, status int, h http.Header, bodyLen int) []byte {
	n := 0
	for _, vs := range h {
		n += len(vs)
	}
	start := len(b)
	b = wire.AppendInt(wire.AppendInt(append(b, 0, 0, 0, 0), status), n)
	for k, vs := range h {
		for _, v := range vs {
			b = wire.AppendString(wire.AppendString(b, k), v)
		}
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4+bodyLen))
	return b
}

// readHeader decodes header pairs, their count checked against the bytes left
// (a pair takes two at least) before anything is sized from it.
func readHeader(r *wire.Reader) http.Header {
	n := r.Int()
	if n > r.Len()/2 {
		r.Fail("%d header pairs in %d bytes", n, r.Len())
		return nil
	}
	h := make(http.Header, n)
	for range n {
		k := r.OwnStr()
		h.Add(k, r.OwnStr())
	}
	return h
}

// DecodeRequest decodes a request frame's payload; body aliases p.
func DecodeRequest(p []byte) (method, uri string, h http.Header, body []byte, err error) {
	r := wire.Borrow(p)
	method, uri = r.OwnStr(), r.OwnStr()
	h = readHeader(r)
	return method, uri, h, r.Rest(), r.Err()
}

// DecodeAnswer decodes an answer frame's payload; body aliases p.
func DecodeAnswer(p []byte) (status int, h http.Header, body []byte, err error) {
	r := wire.Borrow(p)
	if status = r.Int(); status < 100 || status > 999 {
		r.Fail("status %d", status)
	}
	h = readHeader(r)
	return status, h, r.Rest(), r.Err()
}
