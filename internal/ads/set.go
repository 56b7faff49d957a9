package ads

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"grub/internal/merkle"
)

// Set is an authenticated, (state,key)-ordered set of records backed by a
// copy-on-write persistent Merkle search tree: every mutation path-copies the
// O(log n) nodes from the changed position to the root and leaves all other
// nodes shared with previous versions. Consequences the rest of the system
// builds on:
//
//   - Root maintenance is O(log n) per op; there is no deferred rebuild, so
//     Root() is always just a cached-hash read.
//   - Clone() is O(1): it captures the current root pointer. The frozen
//     copy the query views are built from costs nothing regardless of the
//     record count, and any number of historical views share structure.
//   - Reads never mutate (no lazy caches), so a frozen Set is trivially safe
//     for concurrent readers.
//
// The tree is a treap over the (state, key) order with priorities derived
// from a hash of (state, key). Priorities are a deterministic function of the
// key set, so the shape — and therefore the digest — is history-independent:
// any insertion order, including snapshot-restore replay, reproduces the
// identical root. (The usual treap caveat applies: because the digest must
// be reproducible by every replica and verifier, the priorities cannot be
// secret, and a workload crafting keys against the hash could unbalance the
// tree. Expected depth for benign keys is O(log n).)
//
// Each node hashes as
//
//	H(n) = HashInner(HashInner(H(left), leaf(rec)), H(right))
//
// with H(nil) = merkle.EmptyRoot(), and the set digest commits the record
// count on top: Root = HashInner(CountLeaf(n), H(root node)). The nested
// HashInner layout makes a membership proof a plain merkle.Proof hash fold
// (2 path nodes where the walk descends left, 1 where it descends right,
// plus the final count step), so the contract's deliver verification and
// its gas metering are unchanged from the complete-tree era. Absence and
// range completeness use pruned-subtree proofs instead (see prooftree.go).
//
// One Set per feed serves both parties: the DO mutates it and signs its
// digest on-chain, the SP reads it to serve proofs (see package core for
// why sharing it is sound).
type Set struct {
	root *node
}

// node is one immutable tree node. Nodes are shared freely across Set
// versions and must never be mutated after construction.
type node struct {
	rec         Record
	prio        uint64
	left, right *node
	size        int
	hash        merkle.Hash
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func hashOf(n *node) merkle.Hash {
	if n == nil {
		return merkle.EmptyRoot()
	}
	return n.hash
}

// mk builds a fresh immutable node over already-immutable children.
func mk(rec Record, prio uint64, left, right *node) *node {
	return &node{
		rec:  rec,
		prio: prio,
		left: left, right: right,
		size: size(left) + 1 + size(right),
		hash: merkle.HashInner(merkle.HashInner(hashOf(left), rec.Leaf()), hashOf(right)),
	}
}

// prioOf derives a node's treap priority from its (state, key) identity —
// never from the value, so value updates keep the shape.
func prioOf(st State, key string) uint64 {
	h := sha256.New()
	h.Write([]byte{0xf0, byte(st)})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// higher is the strict total heap order on nodes: priority first, (state,
// key) order as the tiebreak. A total order (not just the 64-bit priority)
// is what makes the treap shape canonical.
func higher(a, b *node) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return less(a.rec.State, a.rec.Key, b.rec.State, b.rec.Key)
}

// insert path-copies rec into the subtree, replacing the value if (state,
// key) already exists. rec.Value must already be owned by the set.
func insert(n *node, rec Record) *node {
	if n == nil {
		return mk(rec, prioOf(rec.State, rec.Key), nil, nil)
	}
	switch {
	case less(rec.State, rec.Key, n.rec.State, n.rec.Key):
		l := insert(n.left, rec)
		if higher(l, n) {
			// Rotate right: the inserted node bubbles up.
			return mk(l.rec, l.prio, l.left, mk(n.rec, n.prio, l.right, n.right))
		}
		return mk(n.rec, n.prio, l, n.right)
	case less(n.rec.State, n.rec.Key, rec.State, rec.Key):
		r := insert(n.right, rec)
		if higher(r, n) {
			return mk(r.rec, r.prio, mk(n.rec, n.prio, n.left, r.left), r.right)
		}
		return mk(n.rec, n.prio, n.left, r)
	default:
		return mk(rec, n.prio, n.left, n.right)
	}
}

// del path-copies the subtree with (st, key) removed; the removed node's
// subtrees are merged by priority, keeping the canonical shape.
func del(n *node, st State, key string) *node {
	if n == nil {
		return nil
	}
	switch {
	case less(st, key, n.rec.State, n.rec.Key):
		return mk(n.rec, n.prio, del(n.left, st, key), n.right)
	case less(n.rec.State, n.rec.Key, st, key):
		return mk(n.rec, n.prio, n.left, del(n.right, st, key))
	default:
		return merge(n.left, n.right)
	}
}

// merge joins two treaps where every record in a orders before every record
// in b.
func merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if higher(a, b) {
		return mk(a.rec, a.prio, a.left, merge(a.right, b))
	}
	return mk(b.rec, b.prio, merge(a, b.left), b.right)
}

// lookup descends to (st, key), also computing the record's in-order rank.
func lookup(n *node, st State, key string) (*node, int, bool) {
	rank := 0
	for n != nil {
		switch {
		case less(st, key, n.rec.State, n.rec.Key):
			n = n.left
		case less(n.rec.State, n.rec.Key, st, key):
			rank += size(n.left) + 1
			n = n.right
		default:
			return n, rank + size(n.left), true
		}
	}
	return nil, 0, false
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len returns the number of records.
func (s *Set) Len() int { return size(s.root) }

// find locates key regardless of state, returning its node and in-order
// rank.
func (s *Set) find(key string) (*node, int, bool) {
	if n, rank, ok := lookup(s.root, NR, key); ok {
		return n, rank, true
	}
	if n, rank, ok := lookup(s.root, R, key); ok {
		return n, rank, true
	}
	return nil, 0, false
}

// Get returns the record stored under key.
func (s *Set) Get(key string) (Record, bool) {
	n, _, ok := s.find(key)
	if !ok {
		return Record{}, false
	}
	return n.rec, true
}

// CountState returns the number of records in state st in O(log n). Records
// order by (state, key), so the NR group is a prefix of the in-order walk and
// its length is the rank of the first R record, read off subtree sizes.
func (s *Set) CountState(st State) int {
	nr := 0
	for n := s.root; n != nil; {
		if n.rec.State == NR {
			nr += size(n.left) + 1
			n = n.right
		} else {
			n = n.left
		}
	}
	if st == NR {
		return nr
	}
	return s.Len() - nr
}

// Records returns all records in (state, key) order.
func (s *Set) Records() []Record {
	out := make([]Record, 0, s.Len())
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.rec)
		walk(n.right)
	}
	walk(s.root)
	return out
}

// Put inserts or updates key with the given value and state. If the record
// exists with a different state it is relocated to its new group. It returns
// the previous state and whether the key already existed.
func (s *Set) Put(rec Record) (prev State, existed bool) {
	rec.Value = append([]byte(nil), rec.Value...)
	if n, _, ok := s.find(rec.Key); ok {
		prev = n.rec.State
		if prev != rec.State {
			s.root = del(s.root, prev, rec.Key)
		}
		s.root = insert(s.root, rec)
		return prev, true
	}
	s.root = insert(s.root, rec)
	return 0, false
}

// Delete removes key from the set, reporting whether it existed.
func (s *Set) Delete(key string) bool {
	n, _, ok := s.find(key)
	if !ok {
		return false
	}
	s.root = del(s.root, n.rec.State, key)
	return true
}

// SetState changes the replication state of key, relocating the record. It
// reports whether the key existed (and needed a change).
func (s *Set) SetState(key string, state State) bool {
	n, _, ok := s.find(key)
	if !ok {
		return false
	}
	if n.rec.State == state {
		return true
	}
	rec := n.rec
	rec.State = state
	s.root = del(s.root, n.rec.State, key)
	s.root = insert(s.root, rec)
	return true
}

// CountLeaf is the digest's record-count commitment: the set root is
// HashInner(CountLeaf(n), treeHash). The 0xFF-prefixed preimage is disjoint
// from every record encoding (those start with a state byte of 0 or 1), so
// the count leaf can never be presented as a record or vice versa. Verifiers
// that know the record count recompute it to bind the count to the root.
func CountLeaf(n int) merkle.Hash {
	buf := make([]byte, 0, 14)
	buf = append(buf, 0xff, 'c', 'n', 't')
	buf = binary.AppendUvarint(buf, uint64(n))
	return merkle.HashLeaf(buf)
}

// Root returns the authenticated digest of the set: the tree hash with the
// record count committed on top. Reading it is O(1) — node hashes are
// maintained incrementally on every mutation.
func (s *Set) Root() merkle.Hash {
	return merkle.HashInner(CountLeaf(s.Len()), hashOf(s.root))
}

// Clone captures the current version of the set as a frozen copy in O(1):
// the returned Set shares every node with the receiver, and since nodes are
// immutable and later mutations of the receiver path-copy, the clone is a
// stable snapshot safe for concurrent use from many goroutines. This is what
// the snapshot-isolated query views are built from — publication cost no
// longer depends on the record count.
func (s *Set) Clone() *Set {
	return &Set{root: s.root}
}

// ProveIndex builds a membership proof for the record at in-order index i.
// The proof is a plain hash fold (merkle.Verify): two path nodes per level
// where the record sits in the left subtree, one where it sits in the right,
// and a final step folding in the count commitment.
func (s *Set) ProveIndex(i int) (*merkle.Proof, error) {
	if i < 0 || i >= s.Len() {
		return nil, fmt.Errorf("ads: prove index %d out of range [0,%d)", i, s.Len())
	}
	p := &merkle.Proof{Index: i, LeafCount: s.Len()}
	provePath(s.root, i, p)
	p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: CountLeaf(s.Len())})
	return p, nil
}

// provePath appends the fold steps authenticating the record at in-order
// index i of subtree n, leaf-to-root. The fold invariant: after the steps
// for a subtree, the running hash equals that subtree's node hash.
func provePath(n *node, i int, p *merkle.Proof) {
	ls := size(n.left)
	switch {
	case i < ls:
		provePath(n.left, i, p)
		// Running hash is H(n.left); fold in this node's record leaf and
		// right subtree.
		p.Path = append(p.Path,
			merkle.ProofNode{Left: false, Hash: n.rec.Leaf()},
			merkle.ProofNode{Left: false, Hash: hashOf(n.right)})
	case i == ls:
		// The record itself: running hash starts as its leaf.
		p.Path = append(p.Path,
			merkle.ProofNode{Left: true, Hash: hashOf(n.left)},
			merkle.ProofNode{Left: false, Hash: hashOf(n.right)})
	default:
		provePath(n.right, i-ls-1, p)
		// Running hash is H(n.right); the left-and-record half folds in as
		// one sibling.
		p.Path = append(p.Path,
			merkle.ProofNode{Left: true, Hash: merkle.HashInner(hashOf(n.left), n.rec.Leaf())})
	}
}

// ProveKey returns the record stored under key together with its membership
// proof.
func (s *Set) ProveKey(key string) (Record, *merkle.Proof, error) {
	n, rank, ok := s.find(key)
	if !ok {
		return Record{}, nil, fmt.Errorf("ads: key %q not present", key)
	}
	p, err := s.ProveIndex(rank)
	if err != nil {
		return Record{}, nil, err
	}
	return n.rec, p, nil
}

// collectKeys appends to out up to limit keys of group st with key >= start,
// in ascending key order, pruning subtrees outside the group window.
func collectKeys(n *node, st State, start string, limit int, out []string) []string {
	if n == nil || len(out) >= limit {
		return out
	}
	if less(n.rec.State, n.rec.Key, st, start) {
		// Node (and its whole left subtree) sorts below (st, start).
		return collectKeys(n.right, st, start, limit, out)
	}
	if n.rec.State != st {
		// Node sorts past the end of the st group.
		return collectKeys(n.left, st, start, limit, out)
	}
	out = collectKeys(n.left, st, start, limit, out)
	if len(out) < limit {
		out = append(out, n.rec.Key)
		out = collectKeys(n.right, st, start, limit, out)
	}
	return out
}

// NextKeys returns up to n keys >= start in ascending key order, merging the
// NR and R groups (each is key-sorted internally). Used to expand scans into
// point reads.
func (s *Set) NextKeys(start string, n int) []string {
	if n <= 0 {
		return nil
	}
	nr := collectKeys(s.root, NR, start, n, nil)
	r := collectKeys(s.root, R, start, n, nil)
	out := make([]string, 0, n)
	i, j := 0, 0
	for len(out) < n && (i < len(nr) || j < len(r)) {
		switch {
		case i >= len(nr):
			out = append(out, r[j])
			j++
		case j >= len(r):
			out = append(out, nr[i])
			i++
		case nr[i] <= r[j]:
			out = append(out, nr[i])
			i++
		default:
			out = append(out, r[j])
			j++
		}
	}
	return out
}

// VerifyRecord checks a single-record membership proof against root.
func VerifyRecord(root merkle.Hash, rec Record, p *merkle.Proof) error {
	return merkle.Verify(root, rec.Leaf(), p)
}
