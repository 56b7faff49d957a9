package ads

import (
	"bytes"
	"fmt"

	"grub/internal/merkle"
	"grub/internal/wire"
)

// The pointer-tree absence and range proofs the flat preorder ProofTree
// replaced, kept as the differential oracle: every pruned node is a Go
// object, built by a recursive descent that clones each expanded record,
// decoded node by node and verified by separate hashing and navigating
// walks. Its JSON tags are the nested form ProofTree still renders, and its
// binary encoding is the preorder form ProofTree now holds.

type oracleTree struct {
	Stub  *merkle.Hash `json:"stub,omitempty"`
	Rec   *Record      `json:"rec,omitempty"`
	Left  *oracleTree  `json:"left,omitempty"`
	Right *oracleTree  `json:"right,omitempty"`
}

type oracleAbsence struct {
	Count int         `json:"count"`
	Paths *oracleTree `json:"paths,omitempty"`
}

type oracleRange struct {
	Count   int         `json:"count"`
	Records []Record    `json:"records,omitempty"`
	Proof   *oracleTree `json:"proof,omitempty"`
}

func (p *oracleTree) rootHash(depth int) (merkle.Hash, error) {
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

func (p *oracleTree) Size() int {
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

func (p *oracleAbsence) Size() int { return 8 + p.Paths.Size() }

func (r *oracleRange) Size() int {
	n := 8 + r.Proof.Size()
	for _, rec := range r.Records {
		n += rec.Size()
	}
	return n
}

func oracleDigest(root merkle.Hash, count int, p *oracleTree) error {
	if count < 0 {
		return fmt.Errorf("%w: negative record count", merkle.ErrInvalidProof)
	}
	h, err := p.rootHash(0)
	if err != nil {
		return err
	}
	if got := merkle.HashInner(CountLeaf(count), h); got != root {
		return fmt.Errorf("%w: root mismatch", merkle.ErrInvalidProof)
	}
	return nil
}

func oracleClone(r Record) *Record {
	r.Value = append([]byte(nil), r.Value...)
	return &r
}

func oracleStub(n *node) *oracleTree {
	if n == nil {
		return nil
	}
	h := n.hash
	return &oracleTree{Stub: &h}
}

type oracleTarget struct {
	st  State
	key string
}

func oraclePruneSearch(n *node, ts []oracleTarget) *oracleTree {
	if n == nil {
		return nil
	}
	pt := &oracleTree{Rec: oracleClone(n.record())}
	var lts, rts []oracleTarget
	for _, t := range ts {
		switch {
		case less(t.st, t.key, n.state, n.key):
			lts = append(lts, t)
		case less(n.state, n.key, t.st, t.key):
			rts = append(rts, t)
		}
	}
	if len(lts) > 0 {
		pt.Left = oraclePruneSearch(n.left, lts)
	} else {
		pt.Left = oracleStub(n.left)
	}
	if len(rts) > 0 {
		pt.Right = oraclePruneSearch(n.right, rts)
	} else {
		pt.Right = oracleStub(n.right)
	}
	return pt
}

func oracleProveAbsent(s *Set, key string) *oracleAbsence {
	seal(s.root)
	return &oracleAbsence{Count: s.Len(), Paths: oraclePruneSearch(s.root, []oracleTarget{{NR, key}, {R, key}})}
}

func oracleSearchAbsent(pt *oracleTree, st State, key string, depth int) error {
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
		return oracleSearchAbsent(pt.Left, st, key, depth+1)
	case less(r.State, r.Key, st, key):
		return oracleSearchAbsent(pt.Right, st, key, depth+1)
	default:
		return fmt.Errorf("%w: key present in absence proof", merkle.ErrInvalidProof)
	}
}

func oracleVerifyAbsentAt(root merkle.Hash, count int, key string, p *oracleAbsence) error {
	if count < 0 || p == nil || p.Count != count {
		return merkle.ErrInvalidProof
	}
	if err := oracleDigest(root, p.Count, p.Paths); err != nil {
		return err
	}
	for _, st := range []State{NR, R} {
		if err := oracleSearchAbsent(p.Paths, st, key, 0); err != nil {
			return err
		}
	}
	return nil
}

func oraclePruneWindow(n *node, lo, hi string) *oracleTree {
	if n == nil {
		return nil
	}
	pt := &oracleTree{Rec: oracleClone(n.record())}
	switch {
	case less(n.state, n.key, NR, lo):
		pt.Left, pt.Right = oracleStub(n.left), oraclePruneWindow(n.right, lo, hi)
	case less(NR, hi, n.state, n.key):
		pt.Left, pt.Right = oraclePruneWindow(n.left, lo, hi), oracleStub(n.right)
	default:
		pt.Left, pt.Right = oraclePruneWindow(n.left, lo, hi), oraclePruneWindow(n.right, lo, hi)
	}
	return pt
}

func oracleProveRangeNR(s *Set, lo, hi string) *oracleRange {
	seal(s.root)
	out := &oracleRange{Count: s.Len(), Proof: oraclePruneWindow(s.root, lo, hi)}
	var walk func(pt *oracleTree)
	walk = func(pt *oracleTree) {
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
	return out
}

type oracleBound struct {
	st  State
	key string
}

func oracleWalkWindow(pt *oracleTree, lo, hi string, mn, mx *oracleBound, out *[]Record, depth int) error {
	if pt == nil {
		return nil
	}
	if depth > maxProofDepth {
		return fmt.Errorf("%w: proof tree too deep", merkle.ErrInvalidProof)
	}
	if pt.Stub != nil {
		belowWindow := mx != nil && !less(NR, lo, mx.st, mx.key)
		aboveWindow := mn != nil && !less(mn.st, mn.key, NR, hi)
		if !belowWindow && !aboveWindow {
			return fmt.Errorf("%w: range answer elides a subtree that may intersect the window", merkle.ErrInvalidProof)
		}
		return nil
	}
	r := pt.Rec
	if mn != nil && !less(mn.st, mn.key, r.State, r.Key) || mx != nil && !less(r.State, r.Key, mx.st, mx.key) {
		return fmt.Errorf("%w: range proof is not a search tree", merkle.ErrInvalidProof)
	}
	self := &oracleBound{r.State, r.Key}
	if err := oracleWalkWindow(pt.Left, lo, hi, mn, self, out, depth+1); err != nil {
		return err
	}
	if !less(r.State, r.Key, NR, lo) && !less(NR, hi, r.State, r.Key) {
		*out = append(*out, *r)
	}
	return oracleWalkWindow(pt.Right, lo, hi, self, mx, out, depth+1)
}

func oracleVerifyRangeNRAt(root merkle.Hash, count int, lo, hi string, r *oracleRange) error {
	if r == nil || count < 0 || r.Count != count {
		return merkle.ErrInvalidProof
	}
	if err := oracleDigest(root, count, r.Proof); err != nil {
		return err
	}
	var want []Record
	if err := oracleWalkWindow(r.Proof, lo, hi, nil, nil, &want, 0); err != nil {
		return err
	}
	if len(want) != len(r.Records) {
		return fmt.Errorf("%w: record count", merkle.ErrInvalidProof)
	}
	for i, rec := range r.Records {
		w := want[i]
		if rec.Key != w.Key || rec.State != w.State || !bytes.Equal(rec.Value, w.Value) {
			return fmt.Errorf("%w: record mismatch", merkle.ErrInvalidProof)
		}
	}
	return nil
}

func (p *oracleTree) AppendBinary(b []byte) ([]byte, error) {
	switch {
	case p == nil:
		return append(b, tagNil), nil
	case p.Stub != nil && p.Rec == nil && p.Left == nil && p.Right == nil:
		return append(append(b, tagStub), p.Stub[:]...), nil
	case p.Stub != nil || p.Rec == nil:
		return nil, errMalformedTree
	}
	b, err := p.Left.AppendBinary(p.Rec.appendWire(append(b, tagNode)))
	if err != nil {
		return nil, err
	}
	return p.Right.AppendBinary(b)
}

func (p *oracleAbsence) AppendBinary(b []byte) ([]byte, error) {
	return p.Paths.AppendBinary(wire.AppendInt(b, p.Count))
}

func (nr *oracleRange) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendInt(b, nr.Count)
	b = wire.AppendInt(b, len(nr.Records))
	for _, rec := range nr.Records {
		b = rec.appendWire(b)
	}
	return nr.Proof.AppendBinary(b)
}

func decodeOracleTree(r *wire.Reader, depth int) *oracleTree {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagStub:
		var h merkle.Hash
		copy(h[:], r.Bytes(merkle.HashSize))
		return &oracleTree{Stub: &h}
	case tagNode:
		if depth > maxProofDepth {
			r.Fail("proof tree deeper than %d", maxProofDepth)
			return nil
		}
		rec := new(Record)
		decodeRecordWire(r, rec, r.Str)
		if r.Err() != nil {
			return nil
		}
		pt := &oracleTree{Rec: rec}
		pt.Left = decodeOracleTree(r, depth+1)
		pt.Right = decodeOracleTree(r, depth+1)
		return pt
	default:
		r.Fail("proof tree tag %d", tag)
		return nil
	}
}

func decodeOracleAbsence(r *wire.Reader) *oracleAbsence {
	return &oracleAbsence{Count: r.Int(), Paths: decodeOracleTree(r, 0)}
}

func decodeOracleRange(r *wire.Reader) *oracleRange {
	nr := &oracleRange{Count: r.Int()}
	n := r.Int()
	if n > r.Len()/minRecordWire {
		r.Fail("%d records in %d bytes", n, r.Len())
		return nil
	}
	if n > 0 {
		nr.Records = make([]Record, n)
	}
	for i := range nr.Records {
		decodeRecordWire(r, &nr.Records[i], r.Str)
	}
	nr.Proof = decodeOracleTree(r, 0)
	return nr
}
