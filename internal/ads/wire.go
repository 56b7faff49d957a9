package ads

import (
	"encoding/binary"
	"errors"

	"grub/internal/merkle"
	"grub/internal/wire"
)

// The binary read encoding of the proof types (docs/API.md, "Binary read
// encoding"). Each type appends itself into the caller's buffer and decodes
// itself from a wire.Reader, which records failures; the decoded structs are
// the same structs the JSON form decodes to and go through the same
// verification.

// One-byte shape tags of a ProofTree node, written in preorder.
const (
	tagNil  = 0 // empty subtree
	tagStub = 1 // + 32-byte hash
	tagNode = 2 // + record + left subtree + right subtree
)

// minRecordWire is the shortest record encoding (length, state, key length),
// which bounds how many records a body of a given size can hold.
const minRecordWire = 3

var errMalformedTree = errors.New("ads: proof tree node is neither a bare stub nor an expanded record")

// AppendBinary appends the record as its leaf preimage (Encode) behind that
// preimage's uvarint length. It never fails.
func (r Record) AppendBinary(b []byte) ([]byte, error) { return r.appendWire(b), nil }

func (r Record) appendWire(b []byte) []byte {
	var klen [binary.MaxVarintLen64]byte
	n := 1 + binary.PutUvarint(klen[:], uint64(len(r.Key))) + len(r.Key) + len(r.Value)
	return r.appendEncoding(wire.AppendInt(b, n))
}

// DecodeRecordBinary reads a record written by AppendBinary.
func DecodeRecordBinary(r *wire.Reader) *Record {
	rec := new(Record)
	decodeRecordWire(r, rec)
	return rec
}

// decodeRecordWire reads a record into rec. The state byte must be NR or R.
func decodeRecordWire(r *wire.Reader, rec *Record) {
	n := r.Int()
	if n > r.Len() {
		r.Fail("record of %d bytes, %d remain", n, r.Len())
		return
	}
	end := r.Len() - n
	st := r.Byte()
	if st != byte(NR) && st != byte(R) {
		r.Fail("state byte %d", st)
		return
	}
	key := r.Str()
	if r.Err() != nil || r.Len() < end {
		r.Fail("record key overruns its %d bytes", n)
		return
	}
	*rec = Record{Key: key, State: State(st), Value: r.Bytes(r.Len() - end)}
}

// AppendBinary appends the pruned tree in preorder, one shape tag per node.
func (p *ProofTree) AppendBinary(b []byte) ([]byte, error) {
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

// decodeProofTree reads one subtree. An expanded node and its record are one
// allocation, as are a stub and its hash.
func decodeProofTree(r *wire.Reader, depth int) *ProofTree {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagStub:
		n := &struct {
			pt   ProofTree
			hash merkle.Hash
		}{}
		copy(n.hash[:], r.Bytes(merkle.HashSize))
		n.pt.Stub = &n.hash
		return &n.pt
	case tagNode:
		if depth > maxProofDepth {
			r.Fail("proof tree deeper than %d", maxProofDepth)
			return nil
		}
		n := &struct {
			pt  ProofTree
			rec Record
		}{}
		decodeRecordWire(r, &n.rec)
		if r.Err() != nil {
			return nil
		}
		n.pt.Rec = &n.rec
		n.pt.Left = decodeProofTree(r, depth+1)
		n.pt.Right = decodeProofTree(r, depth+1)
		return &n.pt
	default:
		r.Fail("proof tree tag %d", tag)
		return nil
	}
}

// AppendBinary appends uvarint count | tree.
func (p *AbsenceProof) AppendBinary(b []byte) ([]byte, error) {
	return p.Paths.AppendBinary(wire.AppendInt(b, p.Count))
}

// DecodeAbsenceProof reads an absence proof written by AppendBinary.
func DecodeAbsenceProof(r *wire.Reader) *AbsenceProof {
	return &AbsenceProof{Count: r.Int(), Paths: decodeProofTree(r, 0)}
}

// AppendBinary appends uvarint count | uvarint n | n × record | tree.
func (nr *NRRange) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendInt(b, nr.Count)
	b = wire.AppendInt(b, len(nr.Records))
	for _, rec := range nr.Records {
		b = rec.appendWire(b)
	}
	return nr.Proof.AppendBinary(b)
}

// DecodeNRRange reads a range answer written by AppendBinary.
func DecodeNRRange(r *wire.Reader) *NRRange {
	nr := &NRRange{Count: r.Int()}
	n := r.Int()
	if n > r.Len()/minRecordWire {
		r.Fail("%d records in %d bytes", n, r.Len())
		return nil
	}
	if n > 0 {
		nr.Records = make([]Record, n)
	}
	for i := range nr.Records {
		decodeRecordWire(r, &nr.Records[i])
	}
	nr.Proof = decodeProofTree(r, 0)
	return nr
}
