package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"grub/internal/wire"
)

// mixedBatch is 16 ops of every kind the encoding distinguishes: the three
// known types, an unknown one, empty and non-empty values, scan lengths.
func mixedBatch() []Op {
	types := []string{"read", "write", "scan", "write", "delete"}
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Type: types[i%len(types)], Key: fmt.Sprintf("key-%02d", i), ScanLen: i % 3}
		if i%3 != 0 {
			ops[i].Value = []byte(fmt.Sprintf("value-%d", i))
		}
	}
	return ops
}

// TestDecodeOpsAllocations: decoding a batch allocates the op slice, one
// string per key, one per unknown type and one slice per non-empty value —
// and no copy of the body, which nothing decoded aliases.
func TestDecodeOpsAllocations(t *testing.T) {
	ops := mixedBatch()
	body := AppendOps(nil, ops)
	want := 1 + len(ops)
	for _, op := range ops {
		if op.Type == "delete" {
			want++
		}
		if len(op.Value) > 0 {
			want++
		}
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := DecodeOps(body); err != nil {
			t.Fatal(err)
		}
	})
	if got != float64(want) {
		t.Errorf("decoding %d ops made %v allocations, want %d", len(ops), got, want)
	}
	decoded, err := DecodeOps(body)
	if err != nil || !reflect.DeepEqual(decoded, ops) {
		t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, decoded, ops)
	}
	for i := range body {
		body[i] = 0xff
	}
	if !reflect.DeepEqual(decoded, ops) {
		t.Fatal("decoded ops alias the body")
	}
}

// TestDecodeOpsOneEncoding: only AppendOps's own output decodes, so a batch
// that decodes re-encodes to the bytes it came from.
func TestDecodeOpsOneEncoding(t *testing.T) {
	for name, body := range map[string][]byte{
		"known type under the other code": append(wire.AppendString([]byte{1, opOther}, "read"), 0, 0, 0),
		"non-minimal count":               {0x81, 0x00, opRead, 0, 0, 0},
	} {
		if _, err := DecodeOps(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: DecodeOps = %v, want ErrMalformed", name, err)
		}
	}
}
