package ads

import (
	"bytes"
	"fmt"

	"grub/internal/merkle"
)

// ProofTree is a pruned copy of the persistent Merkle search tree: the nodes
// a verifier must see are expanded (their full record present, so the leaf
// hash is recomputed from the claimed content), every other subtree is
// elided to its stub hash, and a nil ProofTree is the empty subtree. The
// verifier recomputes the root from the pruned shape, so — given a root the
// verifier trusts (the on-chain digest, or a pinned (root, count) anchor) —
// any ProofTree that hashes to it is a truthful partial view of the real
// tree: the expanded records, their positions, and the search-tree order
// around them are exactly those the data owner committed. Absence and
// range-completeness verification then reduce to navigating the pruned
// shape; a stub standing where the navigation needs to look is a refusal to
// show evidence and is rejected.
type ProofTree struct {
	// Stub is the hash of an elided subtree; a stub node carries nothing
	// else.
	Stub *merkle.Hash `json:"stub,omitempty"`
	// Rec is an expanded node's record; Left and Right are its children
	// (nil = empty subtree).
	Rec   *Record    `json:"rec,omitempty"`
	Left  *ProofTree `json:"left,omitempty"`
	Right *ProofTree `json:"right,omitempty"`
}

// maxProofDepth bounds recursion over untrusted ProofTrees. The canonical
// treap keeps honest depths around 1.4·log2(n); 512 leaves extravagant slack
// while keeping a hostile wire payload from exhausting the stack.
const maxProofDepth = 512

// rootHash recomputes the subtree hash committed by the pruned tree,
// validating its structure.
func (p *ProofTree) rootHash(depth int) (merkle.Hash, error) {
	if p == nil {
		return merkle.EmptyRoot(), nil
	}
	if depth > maxProofDepth {
		return merkle.Hash{}, fmt.Errorf("%w: proof tree too deep", merkle.ErrInvalidProof)
	}
	if p.Stub != nil {
		if p.Rec != nil || p.Left != nil || p.Right != nil {
			return merkle.Hash{}, fmt.Errorf("%w: stub node with structure", merkle.ErrInvalidProof)
		}
		return *p.Stub, nil
	}
	if p.Rec == nil {
		return merkle.Hash{}, fmt.Errorf("%w: proof node with neither stub nor record", merkle.ErrInvalidProof)
	}
	l, err := p.Left.rootHash(depth + 1)
	if err != nil {
		return merkle.Hash{}, err
	}
	r, err := p.Right.rootHash(depth + 1)
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.HashInner(merkle.HashInner(l, p.Rec.Leaf()), r), nil
}

// Size returns the byte size for proof-transfer and Gas accounting: one hash
// per stub, the encoded record per expanded node, a byte of shape tagging
// each.
func (p *ProofTree) Size() int {
	if p == nil {
		return 1
	}
	if p.Stub != nil {
		return 1 + merkle.HashSize
	}
	n := 1
	if p.Rec != nil {
		n += p.Rec.Size()
	}
	return n + p.Left.Size() + p.Right.Size()
}

// digestOf recombines a pruned tree's hash with the count commitment and
// checks it against root.
func digestOf(root merkle.Hash, count int, p *ProofTree) error {
	if count < 0 {
		return fmt.Errorf("%w: negative record count", merkle.ErrInvalidProof)
	}
	h, err := p.rootHash(0)
	if err != nil {
		return err
	}
	if got := merkle.HashInner(CountLeaf(count), h); got != root {
		return fmt.Errorf("%w: root mismatch (got %v, want %v)", merkle.ErrInvalidProof, got, root)
	}
	return nil
}

// cloneRec detaches a record from the set's backing memory: proofs cross the
// engine boundary into arbitrary consumers (and the JSON wire), and the
// tree's nodes are shared by every live view.
func cloneRec(r Record) *Record {
	r.Value = append([]byte(nil), r.Value...)
	return &r
}

// stub elides a sealed subtree to its hash.
func stub(n *node) *ProofTree {
	if n == nil {
		return nil
	}
	h := n.hash
	return &ProofTree{Stub: &h}
}

// target is one (state, key) search destination for path pruning.
type target struct {
	st  State
	key string
}

// pruneSearch expands the nodes on the search paths to every target and
// stubs everything else.
func pruneSearch(n *node, ts []target) *ProofTree {
	if n == nil {
		return nil
	}
	pt := &ProofTree{Rec: cloneRec(n.record())}
	var lts, rts []target
	for _, t := range ts {
		switch {
		case less(t.st, t.key, n.state, n.key):
			lts = append(lts, t)
		case less(n.state, n.key, t.st, t.key):
			rts = append(rts, t)
		}
		// An exact hit terminates that target's path here.
	}
	if len(lts) > 0 {
		pt.Left = pruneSearch(n.left, lts)
	} else {
		pt.Left = stub(n.left)
	}
	if len(rts) > 0 {
		pt.Right = pruneSearch(n.right, rts)
	} else {
		pt.Right = stub(n.right)
	}
	return pt
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

// ProveAbsent builds an absence proof for key. The proof's records are
// detached copies, safe to hand to arbitrary consumers.
func (s *Set) ProveAbsent(key string) (*AbsenceProof, error) {
	if s.find(key) != nil {
		return nil, fmt.Errorf("ads: key %q is present", key)
	}
	seal(s.root)
	return &AbsenceProof{
		Count: s.Len(),
		Paths: pruneSearch(s.root, []target{{NR, key}, {R, key}}),
	}, nil
}

// searchAbsent walks the pruned tree along the (st, key) search path: a stub
// on the path hides the answer (reject), an exact hit contradicts absence
// (reject), an empty subtree at the end is absence.
func searchAbsent(pt *ProofTree, st State, key string, depth int) error {
	if pt == nil {
		return nil
	}
	if depth > maxProofDepth {
		return fmt.Errorf("%w: proof tree too deep", merkle.ErrInvalidProof)
	}
	if pt.Stub != nil {
		return fmt.Errorf("%w: absence search path elided", merkle.ErrInvalidProof)
	}
	r := pt.Rec
	switch {
	case less(st, key, r.State, r.Key):
		return searchAbsent(pt.Left, st, key, depth+1)
	case less(r.State, r.Key, st, key):
		return searchAbsent(pt.Right, st, key, depth+1)
	default:
		return fmt.Errorf("%w: key present in absence proof", merkle.ErrInvalidProof)
	}
}

// VerifyAbsent checks an absence proof against root: the pruned tree must
// hash (with the proof's count commitment) to root, and the search for key
// must run to an empty subtree in both state groups. The count is bound into
// the digest, so a proof cannot claim a different count than the tree root
// commits.
func VerifyAbsent(root merkle.Hash, key string, p *AbsenceProof) error {
	if p == nil {
		return fmt.Errorf("%w: nil absence proof", merkle.ErrInvalidProof)
	}
	if err := digestOf(root, p.Count, p.Paths); err != nil {
		return err
	}
	for _, st := range []State{NR, R} {
		if err := searchAbsent(p.Paths, st, key, 0); err != nil {
			return fmt.Errorf("%s group: %w", st, err)
		}
	}
	return nil
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

// pruneWindow expands every node whose subtree may intersect the (state,
// key) window [(NR, lo), (NR, hi)] — the in-window region plus the search
// paths bounding it — and stubs the rest.
func pruneWindow(n *node, lo, hi string) *ProofTree {
	if n == nil {
		return nil
	}
	pt := &ProofTree{Rec: cloneRec(n.record())}
	switch {
	case less(n.state, n.key, NR, lo):
		// Node below the window: its left subtree is entirely below too.
		pt.Left, pt.Right = stub(n.left), pruneWindow(n.right, lo, hi)
	case less(NR, hi, n.state, n.key):
		pt.Left, pt.Right = pruneWindow(n.left, lo, hi), stub(n.right)
	default:
		pt.Left, pt.Right = pruneWindow(n.left, lo, hi), pruneWindow(n.right, lo, hi)
	}
	return pt
}

// ProveRangeNR builds a completeness proof for the NR records with
// lo <= key <= hi. An inverted window (hi < lo) proves the empty result.
// Only the NR group is served: R records live on-chain and are read there
// (paper Appendix B.2.2). The returned records are detached copies.
func (s *Set) ProveRangeNR(lo, hi string) (*NRRange, error) {
	seal(s.root)
	out := &NRRange{Count: s.Len(), Proof: pruneWindow(s.root, lo, hi)}
	var walk func(pt *ProofTree)
	walk = func(pt *ProofTree) {
		if pt == nil || pt.Stub != nil {
			return
		}
		walk(pt.Left)
		r := pt.Rec
		if !less(r.State, r.Key, NR, lo) && !less(NR, hi, r.State, r.Key) {
			out.Records = append(out.Records, *r)
		}
		walk(pt.Right)
	}
	walk(out.Proof)
	return out, nil
}

// bound is an exclusive search-tree bound inherited from expanded ancestors.
type bound struct {
	st  State
	key string
}

// walkWindow verifies the pruned tree covers the window completely,
// collecting the expanded in-window records in order. mn and mx are the
// exclusive (state, key) bounds every record under pt must respect (nil =
// unbounded); a stub is acceptable only when its bounds prove it disjoint
// from [(NR, lo), (NR, hi)].
func walkWindow(pt *ProofTree, lo, hi string, mn, mx *bound, out *[]Record, depth int) error {
	if pt == nil {
		return nil
	}
	if depth > maxProofDepth {
		return fmt.Errorf("%w: proof tree too deep", merkle.ErrInvalidProof)
	}
	if pt.Stub != nil {
		belowWindow := mx != nil && !less(NR, lo, mx.st, mx.key) // mx <= (NR, lo)
		aboveWindow := mn != nil && !less(mn.st, mn.key, NR, hi) // mn >= (NR, hi)
		if !belowWindow && !aboveWindow {
			return fmt.Errorf("%w: range answer elides a subtree that may intersect the window", merkle.ErrInvalidProof)
		}
		return nil
	}
	r := pt.Rec
	// Defense in depth: the expanded region must itself be a search tree
	// within the inherited bounds. (An honestly rooted proof already is.)
	if mn != nil && !less(mn.st, mn.key, r.State, r.Key) {
		return fmt.Errorf("%w: range proof is not a search tree", merkle.ErrInvalidProof)
	}
	if mx != nil && !less(r.State, r.Key, mx.st, mx.key) {
		return fmt.Errorf("%w: range proof is not a search tree", merkle.ErrInvalidProof)
	}
	self := &bound{r.State, r.Key}
	if err := walkWindow(pt.Left, lo, hi, mn, self, out, depth+1); err != nil {
		return err
	}
	if !less(r.State, r.Key, NR, lo) && !less(NR, hi, r.State, r.Key) {
		*out = append(*out, *r)
	}
	return walkWindow(pt.Right, lo, hi, self, mx, out, depth+1)
}

// VerifyRangeNRAt checks a range answer against the (root, count) trust
// anchor: the pruned tree hashes (with the count commitment) to root, every
// elided subtree is provably outside the window, and the expanded in-window
// records — the provably complete answer — are exactly r.Records.
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
	if err := digestOf(root, count, r.Proof); err != nil {
		return err
	}
	var want []Record
	if err := walkWindow(r.Proof, lo, hi, nil, nil, &want, 0); err != nil {
		return err
	}
	if len(want) != len(r.Records) {
		return fmt.Errorf("%w: answer has %d records, tree proves %d", merkle.ErrInvalidProof, len(r.Records), len(want))
	}
	for i, rec := range r.Records {
		w := want[i]
		if rec.Key != w.Key || rec.State != w.State || !bytes.Equal(rec.Value, w.Value) {
			return fmt.Errorf("%w: answer record %q does not match proven record %q", merkle.ErrInvalidProof, rec.Key, w.Key)
		}
	}
	return nil
}
