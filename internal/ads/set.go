package ads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"strings"
	"sync/atomic"

	"grub/internal/merkle"
)

// Set is an authenticated, (state,key)-ordered set of records backed by a
// copy-on-write persistent Merkle search tree whose hashing is deferred to
// the points where a digest is needed. Three rules carry the design:
//
//   - The seal rule. A mutation hashes nothing: it marks every node it
//     creates or edits dirty (hash stale), and half-stale when it assigns
//     the node's left child or edits its record. Root, Capture and the Prove
//     methods first seal the tree — children before parents, each dirty
//     node hashed exactly once — so hashing costs one pass over the distinct
//     nodes touched since the last seal, however many mutations touched
//     them: one HashInner at a node whose left subtree and record are
//     unchanged, two at one where either changed. GRuB signs one digest per
//     gPuts epoch; an epoch of puts pays for its root paths once.
//   - The ownership rule. Every node carries the generation of the Set that
//     created it, and a Set edits in place exactly the nodes of its current
//     generation, sealed or not; any other node is copied before it is
//     written. Capture takes a version without touching the generation;
//     EndGeneration gives the stamp up (a fresh one is drawn at the next
//     mutation), so every node a capture taken before it can reach is copied
//     before the set writes it again. Copying therefore follows the versions
//     someone is reading, not the versions taken: the shard worker captures a
//     view after every batch, but ends the generation only when a read of
//     the view is in flight (see package query); a view no read is in is
//     retracted, and the next batch edits its nodes in place. Clone is
//     Capture and EndGeneration together. A capture owns no node until it is
//     itself mutated, so a frozen one (nobody mutates it, and its set ended
//     the generation) does no writes in any method and is safe for any
//     number of concurrent readers. A set keeps the value bytes it is given
//     and never writes them, and so must every holder of them, its caller
//     included; so between ended generations a mutation allocates nothing
//     but, for a new key, its node.
//   - The journal rule. Journal opens an undo log for mutations that may yet
//     be refused: while it is open, the first in-place edit of a node since
//     the last seal saves the node's prior contents, and Rollback writes them
//     back in reverse order and restores the root, leaving the set exactly
//     as it was at Journal, hashes and all; Commit keeps the mutations. A
//     node edited since the last seal is dirty, so one test (not dirty yet)
//     saves each node once per seal, and copies and new nodes, which no
//     earlier version reaches, are never saved. Capture and Clone panic
//     while a journal is open, because a rollback would rewrite nodes the
//     capture reaches. The shard worker journals a replicated batch applied
//     under a retracted view and rolls it back if the leader's anchor
//     disagrees.
//
// A Set that is being mutated has a single owner: sealing writes node
// hashes, so Root, Capture, Clone and the Prove methods are not reads on it.
// Capture and Clone are O(1) beyond that seal — a capture is a Set value
// holding the root pointer, a clone one allocation holding it — and any
// number of historical views share structure.
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
// count on top: Root = HashInner(CountLeaf(n), H(root node)). Every sealed
// node caches both its leaf and its half, HashInner(H(left), leaf(rec)),
// which depends on neither the right subtree nor anything above it. The
// nested HashInner layout makes a membership proof a plain merkle.Proof
// hash fold (2 path nodes where the walk descends left, 1 — the cached half
// — where it descends right, plus the final count step), so the contract's
// deliver verification and its gas metering are unchanged from the
// complete-tree era, and building the proof hashes nothing. Absence and
// range completeness use pruned-subtree proofs instead (see prooftree.go).
//
// One Set per feed serves both parties: the DO mutates it and signs its
// digest on-chain, the SP reads it to serve proofs (see package core for
// why sharing it is sound).
//
// VerifyMember checks a membership proof against the set's own sealed nodes,
// so on a sealed set an honest proof hashes nothing: the contract's deliver
// verifies this way. A set made by NewSet caches Root's count step; captures
// and clones do not, so a view read on another goroutine never writes one.
type Set struct {
	root *node
	// gen is the generation whose nodes this set may edit in place; 0 (a
	// new set, a capture, a set whose generation just ended) owns none.
	gen uint64
	// j is the undo log, allocated at the first Journal and kept, capacity
	// and all, for the next; nil on a capture.
	j *journal
	// top caches Root's count step; nil on a capture.
	top *rootStep
}

// rootStep is Root's last count step, out = HashInner(count, tree) with
// count = CountLeaf(n); full once written.
type rootStep struct {
	n                int
	count, tree, out merkle.Hash
	full             bool
}

// journal is the undo log of an open Journal: the root and Root's count step
// at the open, and the prior contents of each node edited in place since, in
// edit order.
type journal struct {
	open  bool
	root  *node
	top   rootStep
	saved []savedNode
}

type savedNode struct {
	n     *node
	prior node
}

// generations hands out node generations. 64 bits never wrap, so a
// generation is never reused: a node stamped by one Set can never look owned
// to another, or to the same Set after EndGeneration.
var generations atomic.Uint64

// node is one tree node. The record's fields sit flat in the node so that
// they, the generation stamp and the flags take 80 bytes; with the three
// cached hashes the node fills the 176-byte allocation size class exactly.
// The third hash, half, is 32 bytes per record bought for hashing: a seal
// re-hashes one HashInner, not two, at a dirty node whose left subtree and
// record did not change (every ancestor whose walk went right), and a
// membership proof's right steps read it instead of hashing.
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
	// staleLeaf, leaf; if staleHalf, half) is out of date. Every ancestor of
	// a dirty node is dirty, which lets seal stop at the first sealed node.
	// staleHalf is set wherever the left pointer is assigned; seal sets it
	// for a stale leaf.
	dirty, staleLeaf, staleHalf bool
	// leaf caches the record's leaf hash; it changes only when the record
	// does, so copying a node on another key's root path re-hashes no
	// record.
	leaf merkle.Hash
	// half caches HashInner(H(left), leaf): the node's hash less its right
	// subtree, and the sibling a membership proof's right step folds in.
	half merkle.Hash
	hash merkle.Hash
}

// record returns the node's record. Its value bytes are the ones Put was
// handed, shared with their other holders and never written: an update
// installs the new value's bytes.
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
// stamped with that generation otherwise. Under an open journal, n's
// contents are saved before its first in-place edit since the last seal.
func (s *Set) own(n *node) *node {
	if n.gen != s.gen {
		c := *n
		c.gen = s.gen
		n = &c
	} else if s.j != nil && s.j.open && !n.dirty {
		s.j.saved = append(s.j.saved, savedNode{n: n, prior: *n})
	}
	n.dirty = true
	return n
}

// resize recomputes an owned node's subtree size after a child changed.
func (n *node) resize() {
	n.size = int32(size(n.left) + 1 + size(n.right))
}

// seal hashes the dirty region under n bottom-up, leaving every node sealed.
// A node's half is re-hashed only when its left subtree or record changed.
func seal(n *node) {
	if n == nil || !n.dirty {
		return
	}
	seal(n.left)
	seal(n.right)
	if n.staleLeaf {
		n.leaf = n.record().Leaf()
		n.staleLeaf, n.staleHalf = false, true
	}
	if n.staleHalf {
		n.half = merkle.HashInner(hashOf(n.left), n.leaf)
		n.staleHalf = false
	}
	n.hash = merkle.HashInner(n.half, hashOf(n.right))
	n.dirty = false
}

// prioOf derives a node's treap priority from its (state, key) identity —
// never from the value, so value updates keep the shape.
func prioOf(st State, key string) uint64 {
	var stack [128]byte
	buf := append(stack[:0], 0xf0, byte(st))
	buf = append(buf, key...)
	sum := merkle.Sum256(buf)
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
// (dirty) node. The node keeps rec.Value.
func (s *Set) insert(n *node, rec Record) *node {
	if n == nil {
		return &node{key: rec.Key, value: rec.Value, state: rec.State, prio: prioOf(rec.State, rec.Key),
			gen: s.gen, size: 1, dirty: true, staleLeaf: true}
	}
	switch c := order(rec.State, rec.Key, n); {
	case c < 0:
		l := s.insert(n.left, rec)
		n = s.own(n)
		n.staleHalf = true
		if higher(l, n) {
			// Rotate right: the inserted node bubbles up.
			n.left, l.right = l.right, n
			n.resize()
			l.resize()
			return l
		}
		n.left = l
	case c > 0:
		r := s.insert(n.right, rec)
		n = s.own(n)
		if higher(r, n) {
			n.right, r.left = r.left, n
			r.staleHalf = true
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
	switch c := order(st, key, n); {
	case c < 0:
		n = s.own(n)
		n.left, n.staleHalf = s.del(n.left, st, key), true
	case c > 0:
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
	b.left, b.staleHalf = s.merge(a, b.left), true
	b.resize()
	return b
}

// order compares (st, key) with n's record in the (state, key) order:
// negative if it sorts before n, zero at n, positive after. A descent makes
// one such comparison per level, since keys often share long prefixes.
func order(st State, key string, n *node) int {
	if st != n.state {
		return int(st) - int(n.state)
	}
	return strings.Compare(key, n.key)
}

// lookup descends to (st, key).
func lookup(n *node, st State, key string) *node {
	for n != nil {
		switch c := order(st, key, n); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{top: new(rootStep)} }

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
//
// The set keeps rec.Value, not a copy: the caller hands the bytes over and
// must never write them again (nor may anyone they were shared with).
//
// It inserts into the record's target group first: an update of a record
// already in that group is then done in one descent. Only an insert that
// created a node looks the key up in the other group, and deletes it there
// if found (a relocation). The shape is canonical whatever the order.
func (s *Set) Put(rec Record) (prev State, existed bool) {
	s.claim()
	n := s.Len()
	s.root = s.insert(s.root, rec)
	if s.Len() == n {
		return rec.State, true
	}
	other := R
	if rec.State == R {
		other = NR
	}
	if lookup(s.root, other, rec.Key) == nil {
		return 0, false
	}
	s.root = s.del(s.root, other, rec.Key)
	return other, true
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
// hashing the mutations since the last seal deferred. A set made by NewSet
// caches the count step, so on a sealed, unchanged set Root hashes nothing.
func (s *Set) Root() merkle.Hash {
	seal(s.root)
	t := s.top
	if t == nil {
		t = new(rootStep) // a capture caches nothing
	}
	if n, tree := s.Len(), hashOf(s.root); !t.full || t.n != n || t.tree != tree {
		*t = rootStep{n: n, count: CountLeaf(n), tree: tree, full: true}
		t.out = merkle.HashInner(t.count, tree)
	}
	return t.out
}

// CountLeaf returns CountLeaf(s.Len()), the count commitment a membership
// proof ends with, from Root's cached count step when that step is for the
// current count: after Root, it hashes nothing.
func (s *Set) CountLeaf() merkle.Hash {
	n := s.Len()
	if t := s.top; t != nil && t.full && t.n == n {
		return t.count
	}
	return CountLeaf(n)
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
	return &c
}

// Capture seals the set and returns its current version by value, sharing
// every node with the receiver, without giving up the receiver's
// generation. The receiver's next mutation therefore edits in place nodes
// the capture reaches, and the capture stays what it was only if
// EndGeneration runs before that mutation. The shard worker publishes its
// read views this way, each view holding its capture (query.NewView), and
// ends the generation only for a view a read is in at the next batch. On a
// sealed set (the worker anchors every batch with Root before it publishes)
// Capture allocates nothing, whatever the record count. It panics while a
// journal is open.
func (s *Set) Capture() Set {
	if s.j != nil && s.j.open {
		panic("ads: Capture while a journal is open")
	}
	seal(s.root)
	return Set{root: s.root}
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

// Journal seals the set and opens an undo log: the mutations that follow
// can be undone, all together, by Rollback, or kept by Commit. It panics if
// a journal is already open.
func (s *Set) Journal() {
	if s.j == nil {
		s.j = new(journal)
	}
	if s.j.open {
		panic("ads: Journal while a journal is open")
	}
	seal(s.root)
	s.j.open, s.j.root = true, s.root
	if s.top != nil {
		s.j.top = *s.top
	}
}

// Commit closes the open journal, keeping the mutations made under it.
func (s *Set) Commit() { s.openJournal().close() }

// Rollback undoes every mutation since Journal and closes the journal: the
// set's root, records and cached hashes, Root's count step included, are
// what they were at Journal.
func (s *Set) Rollback() {
	j := s.openJournal()
	for i := len(j.saved) - 1; i >= 0; i-- {
		*j.saved[i].n = j.saved[i].prior
	}
	s.root = j.root
	if s.top != nil {
		*s.top = j.top
	}
	j.close()
}

// openJournal returns the open journal, panicking if there is none.
func (s *Set) openJournal() *journal {
	if s.j == nil || !s.j.open {
		panic("ads: no journal is open")
	}
	return s.j
}

// close drops the journal's references, keeping its capacity for the next
// Journal.
func (j *journal) close() {
	clear(j.saved)
	j.saved, j.root, j.open = j.saved[:0], nil, false
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
// Every step is a hash the seal cached (leaf, half or node hash), so
// building the path hashes nothing.
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
		// Running hash is H(n.right); the cached left-and-record half folds
		// in as one sibling.
		p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: n.half})
	}
}

// ProveKey returns the record stored under key together with its membership
// proof: the proof ProveIndex builds for the record's rank.
func (s *Set) ProveKey(key string) (Record, *merkle.Proof, error) {
	p := new(merkle.Proof)
	rec, ok := s.ProveKeyAt(key, CountLeaf(s.Len()), p)
	if !ok {
		return Record{}, nil, fmt.Errorf("ads: key %q not present", key)
	}
	return rec, p, nil
}

// ProveKeyAt is ProveKey into caller storage, for a caller that already
// holds the set's count leaf (a frozen view computes CountLeaf(Len()) once,
// not per proof). It finds the record, its rank and its path in one descent
// per state group and fills *p, reusing the capacity of p.Path. It reports
// false, leaving *p as it was, when key is in neither group.
func (s *Set) ProveKeyAt(key string, countLeaf merkle.Hash, p *merkle.Proof) (Record, bool) {
	seal(s.root)
	n := proveKeyPath(s.root, NR, key, 0, 1, p)
	if n == nil {
		n = proveKeyPath(s.root, R, key, 0, 1, p)
	}
	if n == nil {
		return Record{}, false
	}
	p.LeafCount = s.Len()
	p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: countLeaf})
	return n.record(), true
}

// proveKeyPath is provePath steered by (st, key) instead of by index. It
// returns the record's node and fills *p with the same fold steps,
// leaf-to-root, Index set to the record's in-order rank (rank counts the
// records left of the subtree n) — or returns nil, having written nothing,
// when (st, key) is not under n. Like provePath it only copies cached
// hashes. steps counts the path nodes the ancestors and the caller will
// append, so a path without the room is allocated once at its final length.
func proveKeyPath(n *node, st State, key string, rank, steps int, p *merkle.Proof) *node {
	if n == nil {
		return nil
	}
	switch c := order(st, key, n); {
	case c < 0:
		hit := proveKeyPath(n.left, st, key, rank, steps+2, p)
		if hit != nil {
			p.Path = append(p.Path,
				merkle.ProofNode{Left: false, Hash: n.leaf},
				merkle.ProofNode{Left: false, Hash: hashOf(n.right)})
		}
		return hit
	case c > 0:
		hit := proveKeyPath(n.right, st, key, rank+size(n.left)+1, steps+1, p)
		if hit != nil {
			p.Path = append(p.Path, merkle.ProofNode{Left: true, Hash: n.half})
		}
		return hit
	default:
		p.Index = rank + size(n.left)
		if cap(p.Path) < steps+2 {
			p.Path = make([]merkle.ProofNode, 0, steps+2)
		}
		p.Path = append(p.Path[:0],
			merkle.ProofNode{Left: true, Hash: hashOf(n.left)},
			merkle.ProofNode{Left: false, Hash: hashOf(n.right)})
		return n
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

// VerifyMember accepts exactly what merkle.Verify(root, rec.Leaf(), p)
// accepts, reading back the hashes the set's seals computed. It pairs the
// fold's steps, leaf to root, with those provePath builds on the path to
// p.Index (found by subtree sizes), then with Root's cached count step. A
// step takes its partner's output only when the partner is sealed and the
// step's inputs equal, bit for bit, the ones that output was hashed from;
// otherwise it hashes. Which node answers never matters (package core says
// why). On a sealed set an honest proof hashes nothing. It writes nothing.
func (s *Set) VerifyMember(root merkle.Hash, rec Record, p *merkle.Proof) error {
	_, err := s.verifyMember(root, rec, p)
	return err
}

// verifyMember is VerifyMember, also returning how many hashes it computed.
func (s *Set) verifyMember(root merkle.Hash, rec Record, p *merkle.Proof) (int, error) {
	if err := merkle.CheckIndex(p); err != nil {
		return 0, err
	}
	f := memberFold{path: p.Path}
	f.descend(s.root, p.Index, &rec)
	if t := s.top; t != nil {
		f.step(t.full, t.count, t.tree, t.out)
	}
	for len(f.path) > 0 {
		f.step(false, merkle.Hash{}, merkle.Hash{}, merkle.Hash{})
	}
	if f.got != root {
		return f.hashed, fmt.Errorf("%w: root mismatch (got %v, want %v)", merkle.ErrInvalidProof, f.got, root)
	}
	return f.hashed, nil
}

// memberFold is one VerifyMember fold: the proof steps not yet folded, the
// running hash and the number of hashes computed.
type memberFold struct {
	path   []merkle.ProofNode
	got    merkle.Hash
	hashed int
}

// descend folds the steps of the path to in-order index i of subtree n: the
// leaf at the node i names, then, on the way up, each node's half (unless
// the path left it rightwards) and hash. An index past n pairs with nothing.
func (f *memberFold) descend(n *node, i int, rec *Record) {
	if n == nil {
		f.got = rec.Leaf()
		f.hashed++
		return
	}
	sealed, ls := !n.dirty, size(n.left)
	switch {
	case i > ls:
		f.descend(n.right, i-ls-1, rec)
		f.step(sealed, n.half, hashOf(n.right), n.hash)
		return
	case i < ls:
		f.descend(n.left, i, rec)
	case sealed && rec.State == n.state && rec.Key == n.key && bytes.Equal(rec.Value, n.value):
		f.got = n.leaf
	default:
		f.got = rec.Leaf()
		f.hashed++
	}
	f.step(sealed, hashOf(n.left), n.leaf, n.half)
	f.step(sealed, n.half, hashOf(n.right), n.hash)
}

// step folds the next proof step, if any: out, which the caller vouches is
// HashInner(left, right), when ok and the step's preimage is (left, right).
func (f *memberFold) step(ok bool, left, right, out merkle.Hash) {
	if len(f.path) == 0 {
		return
	}
	st := &f.path[0]
	f.path = f.path[1:]
	l, r := f.got, st.Hash
	if st.Left {
		l, r = st.Hash, f.got
	}
	if ok && l == left && r == right {
		f.got = out
		return
	}
	f.got = merkle.HashInner(l, r)
	f.hashed++
}
