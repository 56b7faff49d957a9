package kvstore

import (
	"bytes"
	"testing"
)

func TestTypedRecordRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		kind    RecordKind
		seq     uint64
		payload []byte
	}{
		{1, 1, []byte(`[{"type":"read","key":"k"}]`)},
		{RecordImage, 1 << 40, []byte("state")},
		{RecordOpsWire, 7, []byte{1, 0, 1, 'k', 0, 0}},
		{19, 0, nil},
	} {
		enc := append(AppendRecordHeader(nil, tc.kind, tc.seq), tc.payload...)
		kind, seq, payload, err := DecodeTypedRecord(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", tc, err)
		}
		if kind != tc.kind || seq != tc.seq || !bytes.Equal(payload, tc.payload) {
			t.Errorf("roundtrip (%d,%d,%q) -> (%d,%d,%q)", tc.kind, tc.seq, tc.payload, kind, seq, payload)
		}
	}
}

func TestTypedRecordRejectsGarbage(t *testing.T) {
	if _, _, _, err := DecodeTypedRecord([]byte("short")); err == nil {
		t.Error("short record accepted")
	}
	if _, _, _, err := DecodeTypedRecord(make([]byte, 12)); err == nil {
		t.Error("kind-0 record accepted")
	}
}
