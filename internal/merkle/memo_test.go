package merkle

import (
	"errors"
	"testing"
	"unsafe"

	"grub/internal/sim"
)

func randHash(r *sim.Rand) (h Hash) {
	for i := range h {
		h[i] = byte(r.Uint64())
	}
	return h
}

// TestMemoInnerMatchesHashInner checks Inner against HashInner on random
// pairs, on the miss that records each and on the hit that reads it back, and
// that a pair the writer recorded with HashInner reads back the same.
func TestMemoInnerMatchesHashInner(t *testing.T) {
	r := sim.NewRand(1)
	m := &Memo{t: new([memoEntries]memoEntry)}
	for i := 0; i < 4*memoEntries; i++ {
		a, b := randHash(r), randHash(r)
		want := HashInner(a, b)
		if i%2 == 0 {
			if got := m.HashInner(a, b); got != want {
				t.Fatalf("pair %d: recording HashInner = %v, want %v", i, got, want)
			}
		}
		for pass := 0; pass < 2; pass++ {
			if got := m.Inner(a, b); got != want {
				t.Fatalf("pair %d, lookup %d: Inner = %v, want %v", i, pass, got, want)
			}
		}
	}
	// An empty slot never answers for the all-zero preimage.
	var zero Hash
	if got, want := (&Memo{t: new([memoEntries]memoEntry)}).Inner(zero, zero), HashInner(zero, zero); got != want {
		t.Fatalf("Inner(0, 0) on an empty table = %v, want %v", got, want)
	}
}

// TestMemoSlotCollisions forces pairs onto one slot: each evicts the last,
// and a pair that differs from the slot's entry in one bit of either input
// is hashed, never answered with the entry's output.
func TestMemoSlotCollisions(t *testing.T) {
	r := sim.NewRand(2)
	m := &Memo{t: new([memoEntries]memoEntry)}
	onSlot := func() (a, b Hash) {
		a, b = randHash(r), randHash(r)
		a[0], a[1], b[2], b[3] = 7, 1, 0, 0
		return a, b
	}
	var pairs [][2]Hash
	for i := 0; i < 64; i++ {
		a, b := onSlot()
		pairs = append(pairs, [2]Hash{a, b})
	}
	slot := m.slot(&pairs[0][0], &pairs[0][1])
	for _, p := range pairs[1:] {
		if m.slot(&p[0], &p[1]) != slot {
			t.Fatal("pairs built for one slot map to two")
		}
	}
	for round := 0; round < 3; round++ {
		for i, p := range pairs {
			if got, want := m.Inner(p[0], p[1]), HashInner(p[0], p[1]); got != want {
				t.Fatalf("round %d, pair %d: Inner = %v, want %v", round, i, got, want)
			}
			if slot.left != p[0] || slot.right != p[1] {
				t.Fatalf("round %d, pair %d: the slot does not hold the pair it just hashed", round, i)
			}
		}
	}
	a, b := pairs[0][0], pairs[0][1]
	m.Inner(a, b)
	for bit := 0; bit < 8*2*HashSize; bit++ {
		fa, fb := a, b
		if bit < 8*HashSize {
			fa[bit/8] ^= 1 << (bit % 8)
		} else {
			fb[bit/8-HashSize] ^= 1 << (bit % 8)
		}
		if m.slot(&fa, &fb) != slot {
			continue // the flip moved the pair to another slot
		}
		m.HashInner(a, b)
		if got, want := m.Inner(fa, fb), HashInner(fa, fb); got != want {
			t.Fatalf("bit %d flipped: Inner = %v, want %v", bit, got, want)
		}
	}
}

// TestMemoVerifyMatchesVerify folds every proof of several trees through a
// memo: cold, warm, and with every single-bit flip of a sibling, every side
// flip and a wrong leaf, which must be refused as Verify refuses them.
func TestMemoVerifyMatchesVerify(t *testing.T) {
	m := new(Memo)
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		tree := buildTree(n)
		root := tree.Root()
		for i := 0; i < n; i++ {
			p, err := tree.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			leaf := HashLeaf(leafData(i))
			for pass := 0; pass < 2; pass++ {
				if err := m.Verify(root, leaf, p); err != nil {
					t.Fatalf("n=%d i=%d pass %d: %v", n, i, pass, err)
				}
			}
			if err := m.Verify(root, HashLeaf(leafData(i+1)), p); !errors.Is(err, ErrInvalidProof) {
				t.Fatalf("n=%d i=%d: wrong leaf: err = %v", n, i, err)
			}
			for j := range p.Path {
				p.Path[j].Left = !p.Path[j].Left
				if err := m.Verify(root, leaf, p); !errors.Is(err, ErrInvalidProof) {
					t.Fatalf("n=%d i=%d: side %d flipped: err = %v", n, i, j, err)
				}
				p.Path[j].Left = !p.Path[j].Left
				for bit := 0; bit < 8*HashSize; bit += 37 {
					p.Path[j].Hash[bit/8] ^= 1 << (bit % 8)
					if err := m.Verify(root, leaf, p); !errors.Is(err, ErrInvalidProof) {
						t.Fatalf("n=%d i=%d: sibling %d bit %d flipped: err = %v", n, i, j, bit, err)
					}
					p.Path[j].Hash[bit/8] ^= 1 << (bit % 8)
				}
			}
			if err := m.Verify(root, leaf, p); err != nil {
				t.Fatalf("n=%d i=%d: genuine proof after the forgeries: %v", n, i, err)
			}
		}
	}
	if err := m.Verify(EmptyRoot(), EmptyRoot(), nil); !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("nil proof: err = %v", err)
	}
}

// TestMemoAllocatesAtFirstVerify pins the cost of a memo that never
// verifies: recording is a no-op until the first Verify allocates the table,
// and the table is the 97 KiB the doc states.
func TestMemoAllocatesAtFirstVerify(t *testing.T) {
	var m Memo
	a, b := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	if n := testing.AllocsPerRun(100, func() { m.HashInner(a, b) }); n != 0 || m.t != nil {
		t.Fatalf("HashInner before any Verify: %v allocs, table allocated %v", n, m.t != nil)
	}
	tree := buildTree(4)
	p, _ := tree.Prove(1)
	if err := m.Verify(tree.Root(), HashLeaf(leafData(1)), p); err != nil || m.t == nil {
		t.Fatalf("first Verify: err %v, table allocated %v", err, m.t != nil)
	}
	if n := testing.AllocsPerRun(100, func() { m.HashInner(a, b); _ = m.Inner(a, b) }); n != 0 {
		t.Fatalf("HashInner and Inner with a table: %v allocs, want 0", n)
	}
	if size := unsafe.Sizeof(*m.t); size != memoEntries*97 {
		t.Fatalf("table is %d bytes, want %d", size, memoEntries*97)
	}
}
