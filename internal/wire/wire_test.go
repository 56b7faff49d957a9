package wire

import (
	"errors"
	"math"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	b := AppendInt(nil, 300)
	b = AppendUint(b, math.MaxUint64)
	b = AppendString(b, "key")
	b = append(b, 7, 'v', 'a', 'l')
	r := NewReader(b)
	if got := r.Int(); got != 300 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uint(); got != math.MaxUint64 {
		t.Fatalf("Uint = %d", got)
	}
	if got := r.Str(); got != "key" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	val := r.Bytes(3)
	if string(val) != "val" || cap(val) != 3 {
		t.Fatalf("Bytes = %q cap %d, want val with clipped capacity", val, cap(val))
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// The reader owns its bytes: the caller's buffer is free at once.
	for i := range b {
		b[i] = 0xff
	}
	if string(val) != "val" {
		t.Fatalf("decoded value aliases the caller's buffer: %q", val)
	}
	if r.Bytes(0) != nil {
		t.Fatal("empty tail is not nil")
	}
}

func TestReaderRejects(t *testing.T) {
	cases := map[string]func(r *Reader){
		"truncated uvarint":  func(r *Reader) { r.Uint() },
		"string past end":    func(r *Reader) { r.Str() },
		"raw past end":       func(r *Reader) { r.Bytes(9) },
		"int overflow":       func(r *Reader) { r.Int() },
		"trailing bytes":     func(r *Reader) { r.Byte() },
		"explicit":           func(r *Reader) { r.Fail("nope") },
		"byte on empty body": func(r *Reader) { r.Bytes(8); r.Byte() },
	}
	bodies := map[string][]byte{
		"truncated uvarint":  {0x80, 0x80},
		"string past end":    {0x05, 'a', 'b'},
		"raw past end":       {1, 2, 3},
		"int overflow":       AppendUint(nil, math.MaxInt+1),
		"trailing bytes":     {1, 2},
		"explicit":           nil,
		"byte on empty body": {1, 2, 3, 4, 5, 6, 7, 8},
	}
	for name, read := range cases {
		r := NewReader(bodies[name])
		read(r)
		if err := r.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Finish = %v, want ErrMalformed", name, err)
		}
		// Failures are sticky and later reads are zero.
		if r.Len() != 0 || r.Uint() != 0 || r.Str() != "" || r.Bytes(1) != nil {
			t.Errorf("%s: reads after a failure returned data", name)
		}
	}
	// A negative int is written as a value no reader accepts.
	r := NewReader(AppendInt(nil, -1))
	if r.Int(); r.Err() == nil {
		t.Error("negative int accepted")
	}
}

// Sinks keep the allocation tests' results alive.
var (
	sinkStr   string
	sinkBytes []byte
)

// TestReaderCopies: a reader copies the body once, and once more on the first
// Str, for every Str; an OwnStr result is a copy of its own and pins nothing.
func TestReaderCopies(t *testing.T) {
	body := AppendString(AppendString(AppendString(nil, "key"), "other"), "value")
	allocs := map[string]float64{
		"bytes only":  testing.AllocsPerRun(100, func() { r := NewReader(body); r.Int(); sinkBytes = r.Bytes(3) }),
		"two Strs":    testing.AllocsPerRun(100, func() { r := NewReader(body); sinkStr = r.Str(); sinkStr = r.Str() }),
		"two OwnStrs": testing.AllocsPerRun(100, func() { r := NewReader(body); sinkStr = r.OwnStr(); sinkStr = r.OwnStr() }),
	}
	for name, want := range map[string]float64{"bytes only": 1, "two Strs": 2, "two OwnStrs": 3} {
		if allocs[name] != want {
			t.Errorf("%s: %v allocations, want %v", name, allocs[name], want)
		}
	}
	r := NewReader(body)
	own, shared := r.OwnStr(), r.Str()
	if own != "key" || shared != "other" || r.Str() != "value" || r.Finish() != nil {
		t.Fatalf("decoded %q %q", own, shared)
	}
}
