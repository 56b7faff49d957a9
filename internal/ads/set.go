package ads

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"sync/atomic"

	"grub/internal/merkle"
)

// Set is an authenticated, (state,key)-ordered set of records backed by a
// copy-on-write persistent Merkle search tree whose hashing is deferred to
// the points where a digest is needed. Two rules carry the design:
//
//   - The seal rule. A mutation hashes nothing: it marks every node it
//     creates or edits dirty (hash stale). Root, Capture and the Prove methods
//     first seal the tree — children before parents, each dirty node hashed
//     exactly once — so hashing costs one pass over the distinct nodes
//     touched since the last seal, however many mutations touched them. GRuB
//     signs one digest per gPuts epoch; an epoch of puts pays for its root
//     paths once.
//   - The ownership rule. Every node carries the generation of the Set that
//     created it, and a Set edits in place exactly the nodes of its current
//     generation, sealed or not; any other node is copied before it is
//     written. Capture takes a version without touching the generation;
//     EndGeneration gives the stamp up (a fresh one is drawn at the next
//     mutation), so every node a capture taken before it can reach is copied
//     before the set writes it again. Copying therefore follows the versions
//     someone reads, not the versions taken: the shard worker captures a view
//     after every batch, but ends the generation only when a reader pinned
//     the view (see package query); a view nobody pinned is retracted, and
//     the next batch edits its nodes in place. Clone is Capture and
//     EndGeneration together. A capture owns no node until it is itself
//     mutated, so a frozen one (nobody mutates it, and its set ended the
//     generation) does no writes in any method and is safe for any number of
//     concurrent readers. Between ended generations a mutation allocates
//     nothing but the value copy and, for a new key, its node.
//
// A Set that is being mutated has a single owner: sealing writes node
// hashes, so Root, Capture, Clone and the Prove methods are not reads on it.
// Capture and Clone are O(1) beyond that seal — one allocation holding the
// root pointer — and any number of historical views share structure.
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
	// gen is the generation whose nodes this set may edit in place; 0 (a
	// new set, a capture, a set whose generation just ended) owns none.
	gen uint64
}

// generations hands out node generations. 64 bits never wrap, so a
// generation is never reused: a node stamped by one Set can never look owned
// to another, or to the same Set after EndGeneration.
var generations atomic.Uint64

// node is one tree node. The record's fields sit flat in the node so that
// they, the generation stamp, the flags and the two cached hashes fill the
// 144-byte allocation size class exactly; one more word moves every record
// to the 160-byte class.
type node struct {
	key         string
	value       []byte
	prio        uint64
	left, right *node
	// gen is the generation of the Set that created this node (or this
	// copy of it); only a Set of that generation writes it.
	gen   uint64
	size  int32
	state State
	// dirty: created or edited since the last seal, so hash (and, if
	// staleLeaf, leaf) is out of date. Every ancestor of a dirty node is
	// dirty, which lets seal stop at the first sealed node.
	dirty, staleLeaf bool
	// leaf caches the record's leaf hash; it changes only when the record
	// does, so copying a node on another key's root path re-hashes no
	// record.
	leaf merkle.Hash
	hash merkle.Hash
}

// record returns the node's record. Its value bytes are the set's own, never
// written after they are stored: an update installs a fresh copy.
func (n *node) record() Record { return Record{Key: n.key, State: n.state, Value: n.value} }

func size(n *node) int {
	if n == nil {
		return 0
	}
	return int(n.size)
}

// hashOf reads a sealed subtree's hash.
func hashOf(n *node) merkle.Hash {
	if n == nil {
		return merkle.EmptyRoot()
	}
	return n.hash
}

// claim gives the set a generation of its own before a mutation, if it has
// none.
func (s *Set) claim() {
	if s.gen == 0 {
		s.gen = generations.Add(1)
	}
}

// own returns the node a mutation may edit in n's place, marked dirty: n
// itself when it is of the set's generation (no clone can reach it; a
// capture can, which is the capturer's to rule out), a copy
// stamped with that generation otherwise.
func (s *Set) own(n *node) *node {
	if n.gen != s.gen {
		c := *n
		c.gen = s.gen
		n = &c
	}
	n.dirty = true
	return n
}

// resize recomputes an owned node's subtree size after a child changed.
func (n *node) resize() {
	n.size = int32(size(n.left) + 1 + size(n.right))
}

// seal hashes the dirty region under n bottom-up, leaving every node sealed.
func seal(n *node) {
	if n == nil || !n.dirty {
		return
	}
	seal(n.left)
	seal(n.right)
	if n.staleLeaf {
		n.leaf = n.record().Leaf()
		n.staleLeaf = false
	}
	n.hash = merkle.HashInner(merkle.HashInner(hashOf(n.left), n.leaf), hashOf(n.right))
	n.dirty = false
}

// prioOf derives a node's treap priority from its (state, key) identity —
// never from the value, so value updates keep the shape.
func prioOf(st State, key string) uint64 {
	var stack [128]byte
	buf := append(stack[:0], 0xf0, byte(st))
	buf = append(buf, key...)
	sum := sha256.Sum256(buf)
	return binary.BigEndian.Uint64(sum[:8])
}

// higher is the strict total heap order on nodes: priority first, (state,
// key) order as the tiebreak. A total order (not just the 64-bit priority)
// is what makes the treap shape canonical.
func higher(a, b *node) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return less(a.state, a.key, b.state, b.key)
}

// insert puts rec into the subtree, replacing the value if (state, key)
// already exists, and returns the subtree's new root — always an owned
// (dirty) node. rec.Value must already be owned by the set.
func (s *Set) insert(n *node, rec Record) *node {
	if n == nil {
		return &node{key: rec.Key, value: rec.Value, state: rec.State, prio: prioOf(rec.State, rec.Key),
			gen: s.gen, size: 1, dirty: true, staleLeaf: true}
	}
	switch {
	case less(rec.State, rec.Key, n.state, n.key):
		l := s.insert(n.left, rec)
		n = s.own(n)
		if higher(l, n) {
			// Rotate right: the inserted node bubbles up.
			n.left, l.right = l.right, n
			n.resize()
			l.resize()
			return l
		}
		n.left = l
	case less(n.state, n.key, rec.State, rec.Key):
		r := s.insert(n.right, rec)
		n = s.own(n)
		if higher(r, n) {
			n.right, r.left = r.left, n
			n.resize()
			r.resize()
			return r
		}
		n.right = r
	default:
		n = s.own(n)
		n.value, n.staleLeaf = rec.Value, true
		return n
	}
	n.resize()
	return n
}

// del removes (st, key) from the subtree; the removed node's subtrees are
// merged by priority, keeping the canonical shape.
func (s *Set) del(n *node, st State, key string) *node {
	if n == nil {
		return nil
	}
	switch {
	case less(st, key, n.state, n.key):
		n = s.own(n)
		n.left = s.del(n.left, st, key)
	case less(n.state, n.key, st, key):
		n = s.own(n)
		n.right = s.del(n.right, st, key)
	default:
		return s.merge(n.left, n.right)
	}
	n.resize()
	return n
}

// merge joins two treaps where every record in a orders before every record
// in b.
func (s *Set) merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if higher(a, b) {
		a = s.own(a)
		a.right = s.merge(a.right, b)
		a.resize()
		return a
	}
	b = s.own(b)
	b.left = s.merge(a, b.left)
	b.resize()
	return b
}

// lookup descends to (st, key).
func lookup(n *node, st State, key string) *node {
	for n != nil {
		switch {
		case less(st, key, n.state, n.key):
			n = n.left
		case less(n.state, n.key, st, key):
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len returns the number of records.
func (s *Set) Len() int { return size(s.root) }

// find locates key regardless of state, returning its node or nil.
func (s *Set) find(key string) *node {
	if n := lookup(s.root, NR, key); n != nil {
		return n
	}
	return lookup(s.root, R, key)
}

// Get returns the record stored under key.
func (s *Set) Get(key string) (Record, bool) {
	n := s.find(key)
	if n == nil {
		return Record{}, false
	}
	return n.record(), true
}

// CountState returns the number of records in state st in O(log n). Records
// order by (state, key), so the NR group is a prefix of the in-order walk and
// its length is the rank of the first R record, read off subtree sizes.
func (s *Set) CountState(st State) int {
	nr := 0
	for n := s.root; n != nil; {
		if n.state == NR {
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
		out = append(out, n.record())
		walk(n.right)
	}
	walk(s.root)
	return out
}

// Group yields the records in state st in key order. It visits only the
// group's nodes and the search paths bounding it: the NR group is the
// in-order prefix of the tree, the R group the suffix.
func (s *Set) Group(st State) iter.Seq[Record] {
	return func(yield func(Record) bool) {
		var walk func(n *node) bool
		walk = func(n *node) bool {
			switch {
			case n == nil:
				return true
			case n.state < st: // n and its left subtree precede the group
				return walk(n.right)
			case n.state > st: // n and its right subtree follow it
				return walk(n.left)
			}
			return walk(n.left) && yield(n.record()) && walk(n.right)
		}
		walk(s.root)
	}
}

// Put inserts or updates key with the given value and state. If the record
// exists with a different state it is relocated to its new group. It returns
// the previous state and whether the key already existed.
func (s *Set) Put(rec Record) (prev State, existed bool) {
	rec.Value = append([]byte(nil), rec.Value...)
	s.claim()
	if n := s.find(rec.Key); n != nil {
		prev = n.state
		if prev != rec.State {
			s.root = s.del(s.root, prev, rec.Key)
		}
		s.root = s.insert(s.root, rec)
		return prev, true
	}
	s.root = s.insert(s.root, rec)
	return 0, false
}

// Delete removes key from the set, reporting whether it existed.
func (s *Set) Delete(key string) bool {
	n := s.find(key)
	if n == nil {
		return false
	}
	s.claim()
	s.root = s.del(s.root, n.state, key)
	return true
}

// SetState changes the replication state of key, relocating the record. It
// reports whether the key existed (and needed a change).
func (s *Set) SetState(key string, state State) bool {
	n := s.find(key)
	if n == nil {
		return false
	}
	if n.state == state {
		return true
	}
	rec := n.record()
	rec.State = state
	s.claim()
	s.root = s.del(s.root, n.state, key)
	s.root = s.insert(s.root, rec)
	return true
}

// CountLeaf is the digest's record-count commitment: the set root is
// HashInner(CountLeaf(n), treeHash). The 0xFF-prefixed preimage is disjoint
// from every record encoding (those start with a state byte of 0 or 1), so
// the count leaf can never be presented as a record or vice versa. Verifiers
// that know the record count recompute it to bind the count to the root.
func CountLeaf(n int) merkle.Hash {
	var stack [4 + binary.MaxVarintLen64]byte
	buf := append(stack[:0], 0xff, 'c', 'n', 't')
	buf = binary.AppendUvarint(buf, uint64(n))
	return merkle.HashLeaf(buf)
}

// Root returns the authenticated digest of the set: the tree hash with the
// record count committed on top. It seals the tree first, so its cost is the
// hashing the mutations since the last seal deferred; on a sealed tree it is
// two hashes.
func (s *Set) Root() merkle.Hash {
	seal(s.root)
	return merkle.HashInner(CountLeaf(s.Len()), hashOf(s.root))
}

// Clone seals the set and captures its current version as a frozen copy:
// Capture followed by EndGeneration. The returned Set shares every node with
// the receiver, and the receiver's later mutations copy every shared node
// before writing it, so the clone is a stable snapshot safe for concurrent
// use from many goroutines. On a sealed set Clone is one allocation, whatever
// the record count, and on a frozen clone it writes nothing.
func (s *Set) Clone() *Set {
	c := s.Capture()
	s.EndGeneration()
	return c
}

// Capture seals the set and returns its current version, sharing every node
// with the receiver, without giving up the receiver's generation. The
// receiver's next mutation therefore edits in place nodes the capture
// reaches, and the capture stays what it was only if EndGeneration runs
// before that mutation. The shard worker publishes its read views this way
// and ends the generation only for a view a reader has pinned. On a sealed
// set (the worker anchors every batch with Root before it publishes) Capture
// is one allocation, whatever the record count.
func (s *Set) Capture() *Set {
	seal(s.root)
	return &Set{root: s.root}
}

// EndGeneration gives up the set's generation, so that its next mutation
// copies every node an earlier Capture can reach before writing it. On a set
// that owns no generation (a frozen clone) it writes nothing, so readers may
// clone a frozen clone concurrently.
func (s *Set) EndGeneration() {
	if s.gen != 0 {
		s.gen = 0
	}
}

// ProveIndex builds a membership proof for the record at in-order index i.
// The proof is a plain hash fold (merkle.Verify): two path nodes per level
// where the record sits in the left subtree, one where it sits in the right,
// and a final step folding in the count commitment.
func (s *Set) ProveIndex(i int) (*merkle.Proof, error) {
	if i < 0 || i >= s.Len() {
		return nil, fmt.Errorf("ads: prove index %d out of range [0,%d)", i, s.Len())
	}
	seal(s.root)
	p := &merkle.Proof{Index: i, LeafCount: s.Len()}
	provePath(s.root, i, p)
	p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: CountLeaf(s.Len())})
	return p, nil
}

// provePath appends the fold steps authenticating the record at in-order
// index i of the sealed subtree n, leaf-to-root. The fold invariant: after
// the steps for a subtree, the running hash equals that subtree's node hash.
func provePath(n *node, i int, p *merkle.Proof) {
	ls := size(n.left)
	switch {
	case i < ls:
		provePath(n.left, i, p)
		// Running hash is H(n.left); fold in this node's record leaf and
		// right subtree.
		p.Path = append(p.Path,
			merkle.ProofNode{Left: false, Hash: n.leaf},
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
			merkle.ProofNode{Left: true, Hash: merkle.HashInner(hashOf(n.left), n.leaf)})
	}
}

// ProveKey returns the record stored under key together with its membership
// proof: the proof ProveIndex builds for the record's rank.
func (s *Set) ProveKey(key string) (Record, *merkle.Proof, error) {
	rec, p, ok := s.ProveKeyAt(key, CountLeaf(s.Len()))
	if !ok {
		return Record{}, nil, fmt.Errorf("ads: key %q not present", key)
	}
	return rec, p, nil
}

// ProveKeyAt is ProveKey for a caller that already holds the set's count
// leaf (a frozen view computes CountLeaf(Len()) once, not per proof). It
// finds the record, its rank and its path in one descent per state group and
// reports false when key is in neither.
func (s *Set) ProveKeyAt(key string, countLeaf merkle.Hash) (Record, *merkle.Proof, bool) {
	seal(s.root)
	n, p := proveKeyPath(s.root, NR, key, 0, 1)
	if n == nil {
		n, p = proveKeyPath(s.root, R, key, 0, 1)
	}
	if n == nil {
		return Record{}, nil, false
	}
	p.LeafCount = s.Len()
	p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: countLeaf})
	return n.record(), p, true
}

// proveKeyPath is provePath steered by (st, key) instead of by index. It
// returns the record's node and a proof holding the same fold steps,
// leaf-to-root, with Index set to the record's in-order rank (rank counts
// the records left of the subtree n) — or nil, nil, having allocated nothing,
// when (st, key) is not under n. steps counts the path nodes the ancestors
// and the caller will append, so the hit allocates the path once at its
// final length.
func proveKeyPath(n *node, st State, key string, rank, steps int) (*node, *merkle.Proof) {
	if n == nil {
		return nil, nil
	}
	switch {
	case less(st, key, n.state, n.key):
		hit, p := proveKeyPath(n.left, st, key, rank, steps+2)
		if hit != nil {
			p.Path = append(p.Path,
				merkle.ProofNode{Left: false, Hash: n.leaf},
				merkle.ProofNode{Left: false, Hash: hashOf(n.right)})
		}
		return hit, p
	case less(n.state, n.key, st, key):
		hit, p := proveKeyPath(n.right, st, key, rank+size(n.left)+1, steps+1)
		if hit != nil {
			p.Path = append(p.Path,
				merkle.ProofNode{Left: true, Hash: merkle.HashInner(hashOf(n.left), n.leaf)})
		}
		return hit, p
	default:
		return n, &merkle.Proof{
			Index: rank + size(n.left),
			Path: append(make([]merkle.ProofNode, 0, steps+2),
				merkle.ProofNode{Left: true, Hash: hashOf(n.left)},
				merkle.ProofNode{Left: false, Hash: hashOf(n.right)}),
		}
	}
}

// collectKeys appends to out up to limit keys of group st with key >= start,
// in ascending key order, pruning subtrees outside the group window.
func collectKeys(n *node, st State, start string, limit int, out []string) []string {
	if n == nil || len(out) >= limit {
		return out
	}
	if less(n.state, n.key, st, start) {
		// Node (and its whole left subtree) sorts below (st, start).
		return collectKeys(n.right, st, start, limit, out)
	}
	if n.state != st {
		// Node sorts past the end of the st group.
		return collectKeys(n.left, st, start, limit, out)
	}
	out = collectKeys(n.left, st, start, limit, out)
	if len(out) < limit {
		out = append(out, n.key)
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
