package ads

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"grub/internal/merkle"
	"grub/internal/wire"
)

// wireSet holds records that exercise every length class of the encoding:
// keys past 127 bytes (a two-byte uvarint), empty and 200-byte values, both
// state groups.
func wireSet(n int) *Set {
	s := NewSet()
	for i := 0; i < n; i++ {
		r := Record{Key: fmt.Sprintf("key-%04d", i), State: State(i % 4 / 3), Value: []byte(fmt.Sprintf("v%d", i))}
		switch i % 7 {
		case 1:
			r.Key += strings.Repeat("k", 150)
		case 2:
			r.Value = nil
		case 3:
			r.Value = bytes.Repeat([]byte{byte(i)}, 200)
		}
		s.Put(r)
	}
	return s
}

func TestProofTreeBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 300} {
		s := wireSet(n)
		root := s.Root()
		ap, err := s.ProveAbsent("key-0100x")
		if err != nil {
			t.Fatal(err)
		}
		b, err := ap.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > ap.Size() {
			t.Errorf("n=%d: absence proof is %d bytes on the wire, accounted as %d", n, len(b), ap.Size())
		}
		r := wire.NewReader(b)
		gotAP := DecodeAbsenceProof(r)
		if err := r.Finish(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(gotAP, ap) {
			t.Fatalf("n=%d: absence proof changed across the wire", n)
		}
		if err := VerifyAbsent(root, "key-0100x", gotAP); err != nil {
			t.Fatalf("n=%d: decoded absence proof: %v", n, err)
		}

		for _, w := range [][2]string{{"key-0010", "key-0040"}, {"", "zzz"}, {"key-0040", "key-0010"}, {"zz", "zzz"}} {
			nr, err := s.ProveRangeNR(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			b, err := nr.AppendBinary(b[:0])
			if err != nil {
				t.Fatal(err)
			}
			if len(b) > nr.Size() {
				t.Errorf("n=%d %v: range is %d bytes on the wire, accounted as %d", n, w, len(b), nr.Size())
			}
			r := wire.NewReader(b)
			got := DecodeNRRange(r)
			if err := r.Finish(); err != nil {
				t.Fatalf("n=%d %v: %v", n, w, err)
			}
			if !reflect.DeepEqual(got, nr) {
				t.Fatalf("n=%d %v: range answer changed across the wire", n, w)
			}
			if err := VerifyRangeNRAt(root, s.Len(), w[0], w[1], got); err != nil {
				t.Fatalf("n=%d %v: decoded range: %v", n, w, err)
			}
		}
	}
}

// TestProofTreeEncoderRejectsMalformedNodes: a node the tag byte cannot
// express is an encode error, not a silently repaired proof.
func TestProofTreeEncoderRejectsMalformedNodes(t *testing.T) {
	h := merkle.HashLeaf([]byte("x"))
	rec := &Record{Key: "k"}
	for name, pt := range map[string]*ProofTree{
		"neither stub nor record": {},
		"stub with a record":      {Stub: &h, Rec: rec},
		"stub with a child":       {Stub: &h, Left: &ProofTree{Stub: &h}},
		"malformed below the top": {Rec: rec, Right: &ProofTree{}},
	} {
		if _, err := pt.AppendBinary(nil); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func TestDecodeProofTreeRejects(t *testing.T) {
	node := func(state byte) []byte { return []byte{tagNode, 3, state, 1, 'k'} }
	deep := bytes.Repeat(node(0), maxProofDepth+2)
	within := append(bytes.Repeat([]byte{tagNode, 3, 0, 1, 'k', tagNil}, maxProofDepth+1), tagNil)
	for name, c := range map[string]struct {
		body []byte
		ok   bool
	}{
		"chain at the depth cap":   {within, true},
		"chain past the depth cap": {deep, false},
		"state byte 2":             {append(node(2), tagNil, tagNil), false},
		"unknown tag":              {[]byte{3}, false},
		"truncated stub":           {append([]byte{tagStub}, make([]byte, 31)...), false},
		"record longer than body":  {[]byte{tagNode, 200, 0, 1, 'k', tagNil, tagNil}, false},
		"key longer than record":   {[]byte{tagNode, 3, 0, 5, 'k', 'e', 'y', '!', '!', tagNil, tagNil}, false},
		"empty record":             {[]byte{tagNode, 0, tagNil, tagNil}, false},
		"children missing":         {node(1), false},
	} {
		r := wire.NewReader(c.body)
		decodeProofTree(r, 0)
		err := r.Finish()
		if c.ok && err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !c.ok && !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
	// A record count the body cannot hold is refused before the slice for it
	// is made.
	r := wire.NewReader([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x07, tagNil})
	if DecodeNRRange(r); !errors.Is(r.Finish(), wire.ErrMalformed) {
		t.Errorf("huge record count: %v, want ErrMalformed", r.Err())
	}
}

// TestProveKeyMatchesProveIndex pins the one-descent membership proof to the
// by-rank path it replaced on the read path: same record, same index, same
// fold steps, for every key of a mixed-state set, and nothing for a key that
// is absent.
func TestProveKeyMatchesProveIndex(t *testing.T) {
	s := wireSet(2000)
	root, count := s.Root(), CountLeaf(s.Len())
	for rank, want := range s.Records() {
		old, err := s.ProveIndex(rank)
		if err != nil {
			t.Fatal(err)
		}
		rec, p, ok := s.ProveKeyAt(want.Key, count)
		if !ok {
			t.Fatalf("ProveKeyAt(%q) found nothing", want.Key)
		}
		if !reflect.DeepEqual(rec, want) || !reflect.DeepEqual(p, old) {
			t.Fatalf("ProveKeyAt(%q) differs from ProveIndex(%d)", want.Key, rank)
		}
		if cap(p.Path) != len(p.Path) {
			t.Fatalf("ProveKeyAt(%q): path of %d nodes has capacity %d", want.Key, len(p.Path), cap(p.Path))
		}
		if err := VerifyRecord(root, rec, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, p, ok := s.ProveKeyAt("key-0001", count); ok || p != nil {
		t.Fatal("ProveKeyAt proved a key that is absent (key-0001 carries a long suffix)")
	}
}
