// Package merkle implements the authenticated data structure used by GRuB's
// data plane: a Merkle hash tree built over a sorted sequence of leaves, with
// membership proofs for single leaves.
//
// GRuB (paper §3.3, Appendix B.1) builds this tree over KV records that are
// first grouped by replication state (NR before R) and then sorted by key
// within each group; that layout lives in package ads. This package is the
// state-agnostic tree: hashing, root computation, proof generation and proof
// verification.
//
// Every tree hash is one SHA-256 of a short preimage: 65 bytes for an
// interior node, a record encoding (well under 119 bytes in every workload)
// for a leaf. On amd64 CPUs with the SHA extensions these go through one
// fused assembly kernel (sum_amd64.s, adapted from Go's own SHA-NI block
// function) that pads on the stack, compresses one or two blocks from the IV
// and stores the digest, skipping crypto/sha256's digest-state bookkeeping.
// The choice is made once at init from CPUID and never changes a digest:
// other architectures, CPUs without SHA-NI, preimages over 119 bytes and
// builds with -tags purego use crypto/sha256.
package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"grub/internal/wire"
)

// HashSize is the size of a node hash in bytes (SHA-256).
const HashSize = sha256.Size

// Hash is a Merkle node hash.
type Hash [HashSize]byte

// String returns a short hex prefix for debugging.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:4]) }

// Hex returns the full lowercase hex encoding.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// MarshalText encodes the hash as 64 lowercase hex characters; under
// encoding/json that is the quoted hex string the gateway's authenticated
// read API carries on the wire.
func (h Hash) MarshalText() ([]byte, error) {
	out := make([]byte, 2*HashSize)
	hex.Encode(out, h[:])
	return out, nil
}

// UnmarshalText decodes the hex wire representation straight into the array.
func (h *Hash) UnmarshalText(text []byte) error {
	if len(text) != 2*HashSize {
		return fmt.Errorf("merkle: hash is %d hex characters, want %d", len(text), 2*HashSize)
	}
	var out Hash
	if _, err := hex.Decode(out[:], text); err != nil {
		return fmt.Errorf("merkle: hash hex: %w", err)
	}
	*h = out
	return nil
}

// Domain-separation prefixes: leaves and interior nodes must hash into
// disjoint domains or an attacker could present an interior node as a leaf
// (second-preimage attack on Merkle trees).
const (
	leafPrefix  = 0x00
	innerPrefix = 0x01
	emptyPrefix = 0x02
)

// leafBufSize is the largest preimage (prefix byte included) HashLeaf hashes
// without allocating; a typical record encoding (key + value <= 100 B) fits.
const leafBufSize = 128

// HashLeaf hashes leaf payload data into the leaf domain. A preimage of up
// to maxSumLen bytes takes sum; a longer one that fits leafBufSize is
// assembled on the stack for crypto/sha256, and a longer one still makes
// append allocate.
func HashLeaf(data []byte) (h Hash) {
	var buf [leafBufSize]byte
	if len(data) < maxSumLen {
		buf[0] = leafPrefix
		copy(buf[1:], data)
		sum(&h, &buf, 1+len(data))
		return h
	}
	return sha256.Sum256(append(append(buf[:0], leafPrefix), data...))
}

// HashInner hashes two child hashes into the interior-node domain.
func HashInner(left, right Hash) (h Hash) {
	var buf [128]byte
	buf[0] = innerPrefix
	copy(buf[1:], left[:])
	copy(buf[1+HashSize:], right[:])
	sum(&h, &buf, 1+2*HashSize)
	return h
}

var emptyRoot = Hash(sha256.Sum256([]byte{emptyPrefix}))

// EmptyRoot is the root hash of a tree with no leaves.
func EmptyRoot() Hash { return emptyRoot }

// Tree is a Merkle tree over an ordered list of leaf hashes. The tree shape
// is the canonical "largest power of two on the left" split (RFC 6962 style),
// which keeps proofs logarithmic for any leaf count, not just powers of two.
//
// Tree is immutable and recomputes interior nodes on demand: its one caller
// is the per-block transaction tree of internal/btc (the record set has its
// own lazily hashed persistent tree in package ads), and at block sizes that
// is fast enough and keeps the implementation obviously correct.
type Tree struct {
	leaves []Hash
}

// New builds a tree over the given leaf hashes. The slice is copied.
func New(leaves []Hash) *Tree {
	t := &Tree{leaves: make([]Hash, len(leaves))}
	copy(t.leaves, leaves)
	return t
}

// Root computes the root hash of the tree.
func (t *Tree) Root() Hash {
	return rootOf(t.leaves)
}

func rootOf(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return EmptyRoot()
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return HashInner(rootOf(leaves[:k]), rootOf(leaves[k:]))
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n must be >= 2).
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// ProofNode is one sibling hash on an authentication path, tagged with the
// side it sits on.
type ProofNode struct {
	// Left reports whether the sibling is the left child (i.e. the path
	// node is the right child).
	Left bool `json:"left,omitempty"`
	Hash Hash `json:"hash"`
}

// Proof is a membership proof for a single leaf: the sibling hashes from the
// leaf to the root.
type Proof struct {
	// Index is the leaf position the proof speaks for.
	Index int `json:"index"`
	// LeafCount is the total number of leaves in the tree at proof time;
	// the verifier needs it to reproduce the tree shape.
	LeafCount int         `json:"leafCount"`
	Path      []ProofNode `json:"path,omitempty"`
}

// Size returns the serialized size of the proof in bytes, used for Gas
// accounting of deliver transactions (each path node is one hash plus a side
// bit; we round the bookkeeping to HashSize+1 per node plus two 8-byte
// integers).
func (p *Proof) Size() int {
	return 16 + len(p.Path)*(HashSize+1)
}

// Prove builds a membership proof for leaf i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= len(t.leaves) {
		return nil, fmt.Errorf("merkle: prove index %d out of range [0,%d)", i, len(t.leaves))
	}
	p := &Proof{Index: i, LeafCount: len(t.leaves)}
	p.Path = provePath(t.leaves, i, p.Path)
	return p, nil
}

func provePath(leaves []Hash, i int, path []ProofNode) []ProofNode {
	if len(leaves) <= 1 {
		return path
	}
	k := largestPowerOfTwoBelow(len(leaves))
	if i < k {
		path = provePath(leaves[:k], i, path)
		return append(path, ProofNode{Left: false, Hash: rootOf(leaves[k:])})
	}
	path = provePath(leaves[k:], i-k, path)
	return append(path, ProofNode{Left: true, Hash: rootOf(leaves[:k])})
}

// ErrInvalidProof is the sentinel returned (wrapped) by verification
// failures.
var ErrInvalidProof = errors.New("merkle: invalid proof")

// Verify checks that leaf, at the position recorded in the proof, is
// committed to by root.
func Verify(root Hash, leaf Hash, p *Proof) error {
	if err := CheckIndex(p); err != nil {
		return err
	}
	got := leaf
	for _, n := range p.Path {
		if n.Left {
			got = HashInner(n.Hash, got)
		} else {
			got = HashInner(got, n.Hash)
		}
	}
	if got != root {
		return fmt.Errorf("%w: root mismatch (got %v, want %v)", ErrInvalidProof, got, root)
	}
	return nil
}

// CheckIndex refuses a proof that names no leaf, as Verify does first.
func CheckIndex(p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrInvalidProof)
	}
	if p.Index < 0 || p.Index >= p.LeafCount {
		return fmt.Errorf("%w: index %d out of range", ErrInvalidProof, p.Index)
	}
	return nil
}

// AppendBinary appends the proof's binary read encoding (docs/API.md, "Binary
// read encoding"):
//
//	uvarint index | uvarint leafCount | uvarint n | ceil(n/8) direction bytes | n × 32-byte hash
//
// Bit i%8 (least significant first) of direction byte i/8 is path node i's
// Left flag.
func (p *Proof) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendInt(b, p.Index)
	b = wire.AppendInt(b, p.LeafCount)
	b = wire.AppendInt(b, len(p.Path))
	at := len(b)
	b = append(b, make([]byte, (len(p.Path)+7)/8)...)
	for i, n := range p.Path {
		if n.Left {
			b[at+i/8] |= 1 << (i % 8)
		}
	}
	for _, n := range p.Path {
		b = append(b, n.Hash[:]...)
	}
	return b, nil
}

// DecodeProof reads a proof written by AppendBinary into p, its path copied
// out of r's body into an allocation of its own; failures are recorded on r,
// and p is then not to be used. Padding bits past the last path node must be
// zero, so a proof has one encoding.
func DecodeProof(r *wire.Reader, p *Proof) {
	*p = Proof{Index: r.Int(), LeafCount: r.Int()}
	n := r.Count(HashSize)
	dirs := r.Bytes((n + 7) / 8)
	hashes := r.Bytes(n * HashSize)
	if r.Err() != nil {
		return
	}
	if n%8 != 0 && dirs[n/8]>>(n%8) != 0 {
		r.Fail("direction padding bits set")
		return
	}
	if n > 0 {
		p.Path = make([]ProofNode, n)
	}
	for i := range p.Path {
		p.Path[i].Left = dirs[i/8]>>(i%8)&1 == 1
		copy(p.Path[i].Hash[:], hashes[i*HashSize:])
	}
}
