package merkle

import (
	"encoding/binary"
	"fmt"
)

// memoEntries is the number of slots in a Memo's table: 1024 entries of 97
// bytes, 97 KiB per table.
const memoEntries = 1024

// memoEntry is one remembered inner hash: the full 64-byte preimage and the
// HashInner output over it. full marks a written slot, so that an empty one
// never answers for the all-zero preimage.
type memoEntry struct {
	left, right, out Hash
	full             bool
}

// Memo remembers recent HashInner results so that a proof fold can skip the
// inner hashes its writer computed moments before. It is a direct-mapped
// table indexed from bytes of both inputs and checked against the whole
// preimage, so a lookup answers HashInner(left, right) bit for bit or misses:
// a proof step that differs from a remembered one in any bit of either input
// is hashed. An entry is written only by the memo itself, with an output it
// has just computed over exactly that entry's preimage; a caller can choose
// which preimages get hashed, and so evict entries, but never what any entry
// holds.
//
// The table holds no pointers and is allocated at the first Verify, so a
// memo that never verifies costs one nil pointer. A Memo is not safe for
// concurrent use.
type Memo struct {
	t *[memoEntries]memoEntry
}

// slot returns the table entry (left, right) maps to.
func (m *Memo) slot(left, right *Hash) *memoEntry {
	i := binary.LittleEndian.Uint16(left[:]) ^ binary.LittleEndian.Uint16(right[2:])
	return &m.t[i%memoEntries]
}

// HashInner returns HashInner(left, right) and, once the table exists,
// records it. A nil memo only hashes.
func (m *Memo) HashInner(left, right Hash) Hash {
	h := HashInner(left, right)
	if m != nil && m.t != nil {
		*m.slot(&left, &right) = memoEntry{left: left, right: right, out: h, full: true}
	}
	return h
}

// Inner returns HashInner(left, right): the remembered output when the table
// holds exactly this preimage, otherwise a fresh hash, which it records. The
// table must exist.
func (m *Memo) Inner(left, right Hash) Hash {
	e := m.slot(&left, &right)
	if e.full && e.left == left && e.right == right {
		return e.out
	}
	h := HashInner(left, right)
	*e = memoEntry{left: left, right: right, out: h, full: true}
	return h
}

// Verify is merkle.Verify with every inner hash of the fold taken through
// Inner: it accepts exactly the (root, leaf, proof) triples Verify accepts.
// It allocates the table on first use.
func (m *Memo) Verify(root Hash, leaf Hash, p *Proof) error {
	if err := checkIndex(p); err != nil {
		return err
	}
	if m.t == nil {
		m.t = new([memoEntries]memoEntry)
	}
	got := leaf
	for _, n := range p.Path {
		if n.Left {
			got = m.Inner(n.Hash, got)
		} else {
			got = m.Inner(got, n.Hash)
		}
	}
	return checkRoot(got, root)
}

// checkIndex refuses a proof that names no leaf.
func checkIndex(p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrInvalidProof)
	}
	if p.Index < 0 || p.Index >= p.LeafCount {
		return fmt.Errorf("%w: index %d out of range", ErrInvalidProof, p.Index)
	}
	return nil
}

// checkRoot refuses a fold that did not reach root.
func checkRoot(got, root Hash) error {
	if got != root {
		return fmt.Errorf("%w: root mismatch (got %v, want %v)", ErrInvalidProof, got, root)
	}
	return nil
}
