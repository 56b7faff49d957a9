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
		got := new(Proof)
		DecodeProof(r, got)
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
		DecodeProof(r, new(Proof))
		if err := r.Finish(); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

// BenchmarkProofBinary encodes and decodes one membership proof (the 36
// path nodes of a 50k-record set) the way a verified get's answer carries
// it: appended into a reused buffer, then decoded in place from it, which
// allocates the path and nothing else.
func BenchmarkProofBinary(b *testing.B) {
	p := Proof{Index: 1, LeafCount: 50_000, Path: make([]ProofNode, 36)}
	for i := range p.Path {
		p.Path[i] = ProofNode{Left: i%3 == 0, Hash: HashLeaf(leafData(i))}
	}
	var buf []byte
	var back Proof
	b.ReportAllocs()
	for range b.N { // not b.Loop, which keeps wire.Borrow from inlining
		buf, _ = p.AppendBinary(buf[:0])
		r := wire.Borrow(buf)
		DecodeProof(r, &back)
		if err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = back.Path[35].Hash
}
