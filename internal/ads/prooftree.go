package ads

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"grub/internal/merkle"
)

// ProofTree is a pruned copy of the persistent Merkle search tree: the nodes
// a verifier must see are expanded (their full record present, so the leaf
// hash is recomputed from the claimed content), every other subtree is
// elided to its stub hash, and an empty subtree stays empty. The verifier
// recomputes the root from the pruned shape, so — given a root the verifier
// trusts (the on-chain digest, or a pinned (root, count) anchor) — any
// ProofTree that hashes to it is a truthful partial view of the real tree:
// the expanded records, their positions, and the search-tree order around
// them are exactly those the data owner committed. Absence and
// range-completeness verification then reduce to navigating the pruned
// shape; a stub standing where the navigation needs to look is a refusal to
// show evidence and is rejected.
//
// A ProofTree holds nothing but its own preorder encoding, the bytes its
// binary form carries (docs/API.md): one shape tag per node — tagNil for an
// empty subtree; tagStub and the elided subtree's 32-byte hash; tagNode, the
// record's uvarint length, the record's leaf preimage (Record.Encode), then
// the left and the right subtree. The prover appends it in the same descent
// that picks the nodes, and the verifier walks it with a cursor, hashing
// each leaf where its preimage lies, so neither side makes an object per
// node. A nil *ProofTree is the empty tree; a non-nil one never is.
type ProofTree struct {
	enc []byte
}

// maxProofDepth bounds recursion over untrusted ProofTrees. The canonical
// treap keeps honest depths around 1.4·log2(n); 512 leaves extravagant slack
// while keeping a hostile wire payload from exhausting the stack.
const maxProofDepth = 512

// nilTree is the encoding of the empty tree.
var nilTree = []byte{tagNil}

// treeOf makes p hold enc, or returns nil when enc is the empty tree.
func treeOf(p *ProofTree, enc []byte) *ProofTree {
	if len(enc) == 1 && enc[0] == tagNil {
		return nil
	}
	p.enc = enc
	return p
}

func (p *ProofTree) cursor() cursor {
	if p == nil {
		return cursor{b: nilTree}
	}
	return cursor{b: p.enc}
}

// cursor reads an encoded tree in preorder. Every read is checked against
// the bytes that remain: the encoding may come from anyone.
type cursor struct {
	b   []byte
	off int
}

// pnode is one node as read off the encoding. For tagStub, stub is the
// elided subtree's hash; for tagNode, rec is the record's leaf preimage and
// key and value slice it.
type pnode struct {
	tag        byte
	state      State
	stub       []byte
	rec        []byte
	key, value []byte
}

// read reads the next node's shape and content, not its children. depth is
// the node's depth; only an empty subtree may lie deeper than maxProofDepth.
func (c *cursor) read(depth int) (pnode, error) {
	if c.off >= len(c.b) {
		return pnode{}, errors.New("proof tree truncated")
	}
	n := pnode{tag: c.b[c.off]}
	c.off++
	switch n.tag {
	case tagNil:
		return n, nil
	case tagStub, tagNode:
		if depth > maxProofDepth {
			return n, fmt.Errorf("proof tree deeper than %d", maxProofDepth)
		}
	default:
		return n, fmt.Errorf("proof tree tag %d", n.tag)
	}
	rest := c.b[c.off:]
	if n.tag == tagStub {
		if len(rest) < merkle.HashSize {
			return n, errors.New("proof tree stub truncated")
		}
		n.stub = rest[:merkle.HashSize]
		c.off += merkle.HashSize
		return n, nil
	}
	l, k := binary.Uvarint(rest)
	if k <= 0 {
		return n, errors.New("bad record length")
	}
	if l > uint64(len(rest)-k) {
		return n, fmt.Errorf("record of %d bytes, %d remain", l, len(rest)-k)
	}
	n.rec = rest[k : k+int(l)]
	c.off += k + int(l)
	if len(n.rec) < 2 || n.rec[0] > byte(R) {
		return n, errors.New("record without a valid state byte and key")
	}
	n.state = State(n.rec[0])
	klen, kk := binary.Uvarint(n.rec[1:])
	if kk <= 0 || klen > uint64(len(n.rec)-1-kk) {
		return n, errors.New("record key overruns its record")
	}
	n.key = n.rec[1+kk : 1+kk+int(klen)]
	n.value = n.rec[1+kk+int(klen):]
	return n, nil
}

// skip reads past an empty subtree, if one is next, and reports whether it
// did.
func (c *cursor) skip() bool {
	if c.off < len(c.b) && c.b[c.off] == tagNil {
		c.off++
		return true
	}
	return false
}

// skim checks the structure of the subtree at the cursor and moves past it,
// returning the subtree's Size.
func (c *cursor) skim(depth int) (int, error) {
	n, err := c.read(depth)
	switch {
	case err != nil:
		return 0, err
	case n.tag == tagNil:
		return 1, nil
	case n.tag == tagStub:
		return 1 + merkle.HashSize, nil
	}
	l, err := c.skim(depth + 1)
	if err != nil {
		return 0, err
	}
	r, err := c.skim(depth + 1)
	return 1 + len(n.key) + len(n.value) + 6 + l + r, err
}

// compare orders (st, key) against an encoded record's (state, key), as
// less does: -1 below it, 1 above it, 0 the same. It does not allocate.
func compare(st State, key string, rst State, rkey []byte) int {
	switch {
	case st != rst:
		if st < rst {
			return -1
		}
		return 1
	case key < string(rkey):
		return -1
	case key == string(rkey):
		return 0
	}
	return 1
}

// invalid reports a defect of an encoded tree as an invalid proof.
func invalid(err error) error {
	return fmt.Errorf("%w: %v", merkle.ErrInvalidProof, err)
}

// checkDigest checks, after a walk of the whole tree returned its hash h,
// that the walk consumed the whole encoding and that h, with the count
// commitment, is root.
func (c *cursor) checkDigest(root merkle.Hash, count int, h merkle.Hash) error {
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d bytes after the proof tree", merkle.ErrInvalidProof, len(c.b)-c.off)
	}
	if got := merkle.HashInner(CountLeaf(count), h); got != root {
		return fmt.Errorf("%w: root mismatch (got %v, want %v)", merkle.ErrInvalidProof, got, root)
	}
	return nil
}

// Size returns the byte size for proof-transfer and Gas accounting: one hash
// per stub, the encoded record per expanded node, a byte of shape tagging
// each.
func (p *ProofTree) Size() int {
	c := p.cursor()
	n, _ := c.skim(0)
	return n
}

// proofScratch is a prover's working space: the descent appends the tree to
// b (and notes in-window records in hits), then the proof keeps one exact
// copy of b, so a proof costs one allocation however many times b grew.
type proofScratch struct {
	b    []byte
	hits []hit
}

// hit is an in-window record of a range descent: its key, and where its
// value lies in the encoding.
type hit struct {
	key        string
	start, end int
}

// maxPooledScratch caps the buffer a scratch keeps between proofs, so one
// wide range does not pin its size for good.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(proofScratch) }}

func putScratch(sc *proofScratch) {
	if cap(sc.b) > maxPooledScratch || cap(sc.hits) > maxPooledScratch/32 {
		return
	}
	clear(sc.hits) // the keys are the set's
	sc.b, sc.hits = sc.b[:0], sc.hits[:0]
	scratchPool.Put(sc)
}

// appendStub elides a sealed subtree to its hash.
func appendStub(b []byte, n *node) []byte {
	if n == nil {
		return append(b, tagNil)
	}
	return append(append(b, tagStub), n.hash[:]...)
}

// appendExpanded appends n's shape tag and record; its children follow.
// The record is copied, so the proof shares no memory with the set.
func appendExpanded(b []byte, n *node) []byte {
	return n.record().appendWire(append(b, tagNode))
}

// groups is a set of state groups, one bit per State: the groups whose
// absence search path runs through a subtree.
type groups uint8

const bothGroups groups = 1<<NR | 1<<R

// pruneSearch appends the subtree under n in preorder, expanded along the
// (st, key) search path of every group st in paths and elided everywhere
// else.
func pruneSearch(b []byte, n *node, key string, paths groups) []byte {
	if n == nil || paths == 0 {
		return appendStub(b, n)
	}
	b = appendExpanded(b, n)
	var left, right groups
	for st := NR; st <= R; st++ {
		if paths&(1<<st) == 0 {
			continue
		}
		// An exact hit terminates that group's path here.
		switch c := order(st, key, n); {
		case c < 0:
			left |= 1 << st
		case c > 0:
			right |= 1 << st
		}
	}
	b = pruneSearch(b, n.left, key, left)
	return pruneSearch(b, n.right, key, right)
}

// AbsenceProof proves that key is not in the set (in either state group): a
// pruned tree expanded along both the (NR, key) and (R, key) search paths,
// plus the record count the digest commits. Both search paths ending at an
// empty subtree — with no stub standing in the way — is absence.
type AbsenceProof struct {
	Count int        `json:"count"`
	Paths *ProofTree `json:"paths,omitempty"`
}

// Size returns the byte size for Gas accounting.
func (p *AbsenceProof) Size() int {
	return 8 + p.Paths.Size()
}

// ProveAbsent builds an absence proof for key in one descent. The proof
// shares no memory with the set and is safe to hand to arbitrary consumers.
func (s *Set) ProveAbsent(key string) (*AbsenceProof, error) {
	sc := scratchPool.Get().(*proofScratch)
	defer putScratch(sc)
	var err error
	if sc.b, err = s.appendAbsent(sc.b, key); err != nil {
		return nil, err
	}
	out := &struct {
		ap AbsenceProof
		pt ProofTree
	}{ap: AbsenceProof{Count: s.Len()}}
	out.ap.Paths = treeOf(&out.pt, bytes.Clone(sc.b))
	return &out.ap, nil
}

// ProveAbsentInto is ProveAbsent into storage the caller keeps: ap's tree is
// pt, whose encoding is written over pt's own, reusing its capacity. The
// proof shares no memory with the set; it is valid until the next proof
// into pt.
func (s *Set) ProveAbsentInto(key string, ap *AbsenceProof, pt *ProofTree) error {
	enc, err := s.appendAbsent(pt.enc[:0], key)
	if err != nil {
		return err
	}
	pt.enc = enc
	*ap = AbsenceProof{Count: s.Len(), Paths: treeOf(pt, enc)}
	return nil
}

// appendAbsent appends the pruned tree of key's absence proof to b.
func (s *Set) appendAbsent(b []byte, key string) ([]byte, error) {
	if s.find(key) != nil {
		return b, fmt.Errorf("ads: key %q is present", key)
	}
	seal(s.root)
	return pruneSearch(b, s.root, key, bothGroups), nil
}

// absent hashes the subtree at the cursor and, for every group st in paths,
// follows the (st, key) search path through it: a stub on a path hides the
// answer (reject), an exact hit contradicts absence (reject), an empty
// subtree at the end is absence. With no paths it only hashes.
func (c *cursor) absent(key string, paths groups, depth int) (merkle.Hash, error) {
	n, err := c.read(depth)
	switch {
	case err != nil:
		return merkle.Hash{}, invalid(err)
	case n.tag == tagNil:
		return merkle.EmptyRoot(), nil
	case n.tag == tagStub && paths != 0:
		return merkle.Hash{}, groupError(paths, "absence search path elided")
	case n.tag == tagStub:
		return merkle.Hash(n.stub), nil
	}
	var left, right groups
	for st := NR; st <= R; st++ {
		if paths&(1<<st) == 0 {
			continue
		}
		switch compare(st, key, n.state, n.key) {
		case -1:
			left |= 1 << st
		case 1:
			right |= 1 << st
		default:
			return merkle.Hash{}, groupError(1<<st, "key present in absence proof")
		}
	}
	l, err := c.absent(key, left, depth+1)
	if err != nil {
		return merkle.Hash{}, err
	}
	r, err := c.absent(key, right, depth+1)
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.HashInner(merkle.HashInner(l, merkle.HashLeaf(n.rec)), r), nil
}

// groupError names the first group in g as the one whose search failed.
func groupError(g groups, msg string) error {
	st := NR
	if g&(1<<NR) == 0 {
		st = R
	}
	return fmt.Errorf("%s group: %w: %s", st, merkle.ErrInvalidProof, msg)
}

// VerifyAbsent checks an absence proof against root in one walk: the pruned
// tree must hash (with the proof's count commitment) to root, and the search
// for key must run to an empty subtree in both state groups. The count is
// bound into the digest, so a proof cannot claim a different count than the
// tree root commits.
func VerifyAbsent(root merkle.Hash, key string, p *AbsenceProof) error {
	if p == nil {
		return fmt.Errorf("%w: nil absence proof", merkle.ErrInvalidProof)
	}
	if p.Count < 0 {
		return fmt.Errorf("%w: negative record count", merkle.ErrInvalidProof)
	}
	c := p.Paths.cursor()
	h, err := c.absent(key, bothGroups, 0)
	if err != nil {
		return err
	}
	return c.checkDigest(root, p.Count, h)
}

// VerifyAbsentAt is VerifyAbsent anchored to an externally known record
// count: the count the digest commits must be exactly count. (root, count)
// together form the trust anchor the query read path advertises per shard.
func VerifyAbsentAt(root merkle.Hash, count int, key string, p *AbsenceProof) error {
	if count < 0 {
		return fmt.Errorf("%w: negative record count", merkle.ErrInvalidProof)
	}
	if p == nil {
		return fmt.Errorf("%w: nil absence proof", merkle.ErrInvalidProof)
	}
	if p.Count != count {
		return fmt.Errorf("%w: proof claims %d records, anchor says %d", merkle.ErrInvalidProof, p.Count, count)
	}
	return VerifyAbsent(root, key, p)
}

// NRRange is a verifiable answer to "all NR records with lo <= key <= hi":
// the in-window records plus a pruned tree whose expanded region covers the
// window. Completeness comes from the tree shape: every elided subtree must
// be provably disjoint from the window (its search-tree bounds sit entirely
// below (NR, lo) or entirely above (NR, hi)), so an adversarial server can
// neither omit nor inject records.
type NRRange struct {
	Count int `json:"count"`
	// Records are the NR records with lo <= key <= hi, in key order.
	Records []Record   `json:"records,omitempty"`
	Proof   *ProofTree `json:"proof,omitempty"`
}

// Size returns the byte size for proof-transfer accounting.
func (r *NRRange) Size() int {
	n := 8 + r.Proof.Size()
	for _, rec := range r.Records {
		n += rec.Size()
	}
	return n
}

// pruneWindow appends the subtree under n in preorder, expanding every node
// whose subtree may intersect the (state, key) window [(NR, lo), (NR, hi)] —
// the in-window region plus the search paths bounding it — and eliding the
// rest. It notes the in-window records in hits, in key order.
func pruneWindow(b []byte, n *node, lo, hi string, hits *[]hit) []byte {
	if n == nil {
		return append(b, tagNil)
	}
	b = appendExpanded(b, n)
	switch {
	case less(n.state, n.key, NR, lo):
		// Node below the window: its left subtree is entirely below too.
		return pruneWindow(appendStub(b, n.left), n.right, lo, hi, hits)
	case less(NR, hi, n.state, n.key):
		return appendStub(pruneWindow(b, n.left, lo, hi, hits), n.right)
	}
	end := len(b) // the record's encoding ends with its value
	b = pruneWindow(b, n.left, lo, hi, hits)
	*hits = append(*hits, hit{n.key, end - len(n.value), end})
	return pruneWindow(b, n.right, lo, hi, hits)
}

// ProveRangeNR builds a completeness proof for the NR records with
// lo <= key <= hi in one descent. An inverted window (hi < lo) proves the
// empty result. Only the NR group is served: R records live on-chain and are
// read there (paper Appendix B.2.2). The returned records' values are the
// proof's own copies.
func (s *Set) ProveRangeNR(lo, hi string) (*NRRange, error) {
	seal(s.root)
	sc := scratchPool.Get().(*proofScratch)
	sc.b = pruneWindow(sc.b, s.root, lo, hi, &sc.hits)
	out := &struct {
		nr NRRange
		pt ProofTree
	}{nr: NRRange{Count: s.Len()}}
	out.nr.Proof = treeOf(&out.pt, bytes.Clone(sc.b))
	if len(sc.hits) > 0 {
		out.nr.Records = make([]Record, len(sc.hits))
		for i, h := range sc.hits {
			out.nr.Records[i] = Record{Key: h.key, State: NR, Value: valueAt(out.pt.enc, h.start, h.end)}
		}
	}
	putScratch(sc)
	return &out.nr, nil
}

// valueAt slices a record value out of an encoding, capacity clipped; an
// empty value is nil, as a decoded one is.
func valueAt(enc []byte, start, end int) []byte {
	if start == end {
		return nil
	}
	return enc[start:end:end]
}

// bound is an exclusive search-tree bound inherited from an expanded
// ancestor; the zero bound is unbounded.
type bound struct {
	ok  bool
	st  State
	key []byte
}

// below reports whether b < (st, key), as encoded records.
func (b bound) below(st State, key []byte) bool {
	if b.st != st {
		return b.st < st
	}
	return bytes.Compare(b.key, key) < 0
}

// window is one range verification: the window and the answer whose records
// the walk matches against the tree's in-window records, counted in proven.
type window struct {
	lo, hi string
	answer []Record
	proven int
}

// walk hashes the subtree at the cursor and checks that it covers the window
// completely. mn and mx are the exclusive (state, key) bounds every record
// in the subtree must respect; a stub is acceptable only when its bounds
// prove it disjoint from [(NR, lo), (NR, hi)]. Each in-window record, in
// key order, must be the next record of the answer.
func (w *window) walk(c *cursor, mn, mx bound, depth int) (merkle.Hash, error) {
	n, err := c.read(depth)
	switch {
	case err != nil:
		return merkle.Hash{}, invalid(err)
	case n.tag == tagNil:
		return merkle.EmptyRoot(), nil
	case n.tag == tagStub:
		belowWindow := mx.ok && compare(NR, w.lo, mx.st, mx.key) >= 0 // mx <= (NR, lo)
		aboveWindow := mn.ok && compare(NR, w.hi, mn.st, mn.key) <= 0 // mn >= (NR, hi)
		if !belowWindow && !aboveWindow {
			return merkle.Hash{}, fmt.Errorf("%w: range answer elides a subtree that may intersect the window", merkle.ErrInvalidProof)
		}
		return merkle.Hash(n.stub), nil
	}
	// Defense in depth: the expanded region must itself be a search tree
	// within the inherited bounds. (An honestly rooted proof already is.)
	self := bound{true, n.state, n.key}
	if mn.ok && !mn.below(n.state, n.key) || mx.ok && !self.below(mx.st, mx.key) {
		return merkle.Hash{}, fmt.Errorf("%w: range proof is not a search tree", merkle.ErrInvalidProof)
	}
	l, err := w.walk(c, mn, self, depth+1)
	if err != nil {
		return merkle.Hash{}, err
	}
	if compare(NR, w.lo, n.state, n.key) <= 0 && compare(NR, w.hi, n.state, n.key) >= 0 {
		if i := w.proven; i < len(w.answer) {
			if a := w.answer[i]; a.Key != string(n.key) || a.State != n.state || !bytes.Equal(a.Value, n.value) {
				return merkle.Hash{}, fmt.Errorf("%w: answer record %q does not match proven record %q", merkle.ErrInvalidProof, a.Key, n.key)
			}
		}
		w.proven++
	}
	r, err := w.walk(c, self, mx, depth+1)
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.HashInner(merkle.HashInner(l, merkle.HashLeaf(n.rec)), r), nil
}

// VerifyRangeNRAt checks a range answer against the (root, count) trust
// anchor in one walk: the pruned tree hashes (with the count commitment) to
// root, every elided subtree is provably outside the window, and the
// expanded in-window records — the provably complete answer — are exactly
// r.Records.
func VerifyRangeNRAt(root merkle.Hash, count int, lo, hi string, r *NRRange) error {
	if r == nil {
		return fmt.Errorf("%w: nil range answer", merkle.ErrInvalidProof)
	}
	if count < 0 {
		return fmt.Errorf("%w: negative record count", merkle.ErrInvalidProof)
	}
	if r.Count != count {
		return fmt.Errorf("%w: answer claims %d records, anchor says %d", merkle.ErrInvalidProof, r.Count, count)
	}
	c := r.Proof.cursor()
	w := window{lo: lo, hi: hi, answer: r.Records}
	h, err := w.walk(&c, bound{}, bound{}, 0)
	if err != nil {
		return err
	}
	if err := c.checkDigest(root, count, h); err != nil {
		return err
	}
	if w.proven != len(r.Records) {
		return fmt.Errorf("%w: answer has %d records, tree proves %d", merkle.ErrInvalidProof, len(r.Records), w.proven)
	}
	return nil
}
