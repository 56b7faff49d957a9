package merkle

import (
	"errors"
	"reflect"
	"testing"

	"grub/internal/wire"
)

func TestProofBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 33} {
		p := &Proof{Index: n * 3, LeafCount: n*3 + 1}
		for i := 0; i < n; i++ {
			p.Path = append(p.Path, ProofNode{Left: i%3 == 0, Hash: HashLeaf([]byte{byte(i)})})
		}
		b, err := p.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if want := len("prefix") + p.Size(); len(b) > want {
			t.Errorf("%d-node proof is %d bytes on the wire, accounted as %d", n, len(b)-6, p.Size())
		}
		r := wire.NewReader(b[len("prefix"):])
		got := DecodeProof(r)
		if err := r.Finish(); err != nil {
			t.Fatalf("%d nodes: %v", n, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%d nodes: decoded %+v, want %+v", n, got, p)
		}
	}
}

func TestDecodeProofRejects(t *testing.T) {
	p := &Proof{Index: 1, LeafCount: 4, Path: []ProofNode{{Left: true}, {}, {Left: true}}}
	good, _ := p.AppendBinary(nil)
	for name, body := range map[string][]byte{
		"truncated hash":    good[:len(good)-1],
		"path longer than":  {1, 4, 0xff, 0xff, 0xff, 0x7f},
		"padding bits set":  append([]byte{1, 4, 3, 0x0d}, good[4:]...),
		"direction missing": {1, 4, 3},
	} {
		r := wire.NewReader(body)
		DecodeProof(r)
		if err := r.Finish(); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
}
