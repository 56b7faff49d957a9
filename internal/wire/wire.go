// Package wire holds the byte-level primitives of the gateway's two binary
// encodings (layouts in docs/API.md): the read encoding, media type
// application/x-grub-read, and the ops encoding, application/x-grub-ops.
// Primitives are uvarint lengths and integers, length-prefixed strings and
// raw fixed-size fields. The proof types in merkle, ads and query, and the
// op batches and results in server, append themselves with the Append
// functions and decode themselves from a Reader.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed wraps every decode failure: a length that overruns the body,
// a value outside its domain, bytes left over after the last field.
var ErrMalformed = errors.New("wire: malformed binary encoding")

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a non-negative int as a uvarint. A negative v has no
// encoding: it is written as a value no Reader accepts, so the receiver
// rejects the body.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Reader decodes one body. The body comes from a party the caller does not
// trust, so every read is checked against the bytes that remain and nothing
// is sized from a decoded length without that check. Errors are sticky: after
// the first failure every read returns a zero value and Err reports the
// failure, so decoders read field after field and check once — but a loop
// bounded by a decoded count must bound that count with Len first.
//
// NewReader copies the body, as the bytes Bytes results alias; the first Str
// copies it once more, as the string Str results alias. Decoding a proof tree
// therefore allocates once per node, never per key or value, and the caller
// may reuse the body's buffer as soon as NewReader returns. The price is that
// any one decoded key or value keeps the whole copy reachable. OwnStr is the
// way out for a string that will outlive the rest of the body.
type Reader struct {
	buf []byte
	str string
	off int
	err error
}

// NewReader returns a reader over a private copy of body.
func NewReader(body []byte) *Reader {
	return &Reader{buf: append([]byte(nil), body...)}
}

// Len returns the number of unread bytes (0 after a failure).
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decoder's own domain check failing (a state byte that is
// neither 0 nor 1, a tree past its depth cap) unless an earlier failure is
// already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: at byte %d: %s", ErrMalformed, r.off, fmt.Sprintf(format, args...))
	}
}

// Finish returns the first failure, and fails on unread trailing bytes.
func (r *Reader) Finish() error {
	if n := r.Len(); n > 0 {
		r.Fail("%d trailing bytes", n)
	}
	return r.err
}

// take advances past n bytes and returns the offset they start at.
func (r *Reader) take(n uint64) (int, bool) {
	if r.err != nil {
		return 0, false
	}
	if n > uint64(len(r.buf)-r.off) {
		r.Fail("field of %d bytes, %d remain", n, len(r.buf)-r.off)
		return 0, false
	}
	at := r.off
	r.off += int(n)
	return at, true
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	at, ok := r.take(1)
	if !ok {
		return 0
	}
	return r.buf[at]
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uint()
	if v > math.MaxInt {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Str reads a uvarint length and that many bytes as a string aliasing the
// reader's copy.
func (r *Reader) Str() string {
	at, ok := r.take(r.Uint())
	if !ok {
		return ""
	}
	if len(r.str) != len(r.buf) {
		r.str = string(r.buf)
	}
	return r.str[at:r.off]
}

// OwnStr reads a string as Str does, but into an allocation of its own, so
// holding it keeps nothing else of the body reachable.
func (r *Reader) OwnStr() string {
	at, ok := r.take(r.Uint())
	if !ok {
		return ""
	}
	return string(r.buf[at:r.off])
}

// Bytes reads n bytes as a slice aliasing the reader's copy, capacity clipped
// so an append by the consumer cannot reach the bytes behind it. Zero bytes
// read as nil, as encoding/json decodes an omitted []byte.
func (r *Reader) Bytes(n int) []byte {
	at, ok := r.take(uint64(n))
	if !ok || n == 0 {
		return nil
	}
	return r.buf[at:r.off:r.off]
}
