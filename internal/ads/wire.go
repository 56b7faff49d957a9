package ads

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"grub/internal/merkle"
	"grub/internal/wire"
)

// The binary read encoding of the proof types (docs/API.md, "Binary read
// encoding"). Each type appends itself into the caller's buffer and decodes
// itself from a wire.Reader, which records failures; the decoded structs are
// the same structs the JSON form decodes to and go through the same
// verification. A ProofTree's binary form is the encoding it holds, so
// encoding it is a copy and decoding it a scan.

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

// DecodeRecordBinary reads a record written by AppendBinary into rec, which
// then keeps nothing of r's body, so a decoder over a borrowed body may use
// it: its value is a copy, and so is its key, unless the key is known, whose
// string rec then shares.
func DecodeRecordBinary(r *wire.Reader, rec *Record, known string) {
	decodeRecordWire(r, rec, func() string { return r.OwnStrOr(known) })
	rec.Value = bytes.Clone(rec.Value)
}

// decodeRecordWire reads a record into rec, its key with key and its value
// aliasing r's body. The state byte must be NR or R.
func decodeRecordWire(r *wire.Reader, rec *Record, key func() string) {
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
	k := key()
	if r.Err() != nil || r.Len() < end {
		r.Fail("record key overruns its %d bytes", n)
		return
	}
	*rec = Record{Key: k, State: State(st), Value: r.Bytes(r.Len() - end)}
}

// AppendBinary appends the tree's preorder encoding, which is all a
// ProofTree holds. It never fails.
func (p *ProofTree) AppendBinary(b []byte) ([]byte, error) {
	return append(b, p.cursor().b...), nil
}

// decodeProofTree scans one tree at r's position — tags, record lengths and
// state bytes, depth — and makes p hold it, nil for the empty tree. The bytes
// stay where they are, in the reader's private copy of the body.
func decodeProofTree(r *wire.Reader, p *ProofTree) *ProofTree {
	c := cursor{b: r.Rest()}
	if _, err := c.skim(0); err != nil {
		r.Fail("%v", err)
		return nil
	}
	return treeOf(p, r.Bytes(c.off))
}

// AppendBinary appends uvarint count | tree.
func (p *AbsenceProof) AppendBinary(b []byte) ([]byte, error) {
	return p.Paths.AppendBinary(wire.AppendInt(b, p.Count))
}

// DecodeAbsenceProof reads an absence proof written by AppendBinary: one
// allocation, the proof and its tree together, and a copy of the tree's
// bytes, so that it keeps nothing of r's body.
func DecodeAbsenceProof(r *wire.Reader) *AbsenceProof {
	out := &struct {
		ap AbsenceProof
		pt ProofTree
	}{ap: AbsenceProof{Count: r.Int()}}
	if out.ap.Paths = decodeProofTree(r, &out.pt); out.ap.Paths != nil {
		out.pt.enc = bytes.Clone(out.pt.enc)
	}
	return &out.ap
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
	out := &struct {
		nr NRRange
		pt ProofTree
	}{nr: NRRange{Count: r.Int()}}
	nr := &out.nr
	if n := r.Count(minRecordWire); n > 0 {
		nr.Records = make([]Record, n)
	}
	for i := range nr.Records {
		decodeRecordWire(r, &nr.Records[i], r.Str)
	}
	nr.Proof = decodeProofTree(r, &out.pt)
	return nr
}

// jsonTree is one node of a ProofTree's JSON form, the nested debug form
// docs/API.md shows: {"stub": hash} for an elided subtree, or {"rec": record,
// "left": ..., "right": ...} with an empty child left out.
type jsonTree struct {
	Stub  *merkle.Hash `json:"stub,omitempty"`
	Rec   *Record      `json:"rec,omitempty"`
	Left  *jsonTree    `json:"left,omitempty"`
	Right *jsonTree    `json:"right,omitempty"`
}

// MarshalJSON renders the tree in its nested JSON form, straight from the
// encoding.
func (p *ProofTree) MarshalJSON() ([]byte, error) {
	c := p.cursor()
	return c.appendJSON(nil, 0)
}

func (c *cursor) appendJSON(b []byte, depth int) ([]byte, error) {
	n, err := c.read(depth)
	switch {
	case err != nil:
		return nil, err
	case n.tag == tagNil:
		return append(b, "null"...), nil
	case n.tag == tagStub:
		h, err := merkle.Hash(n.stub).MarshalText()
		return append(append(append(b, `{"stub":"`...), h...), `"}`...), err
	}
	rec, err := json.Marshal(Record{Key: string(n.key), State: n.state, Value: n.value})
	if err != nil {
		return nil, err
	}
	b = append(append(b, `{"rec":`...), rec...)
	for _, field := range []string{`,"left":`, `,"right":`} {
		if c.skip() {
			continue
		}
		if b, err = c.appendJSON(append(b, field...), depth+1); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the nested JSON form into the preorder encoding. A node
// the encoding cannot express — neither a bare stub nor an expanded record
// — is an error, as are a state byte other than NR or R and a tree deeper
// than maxProofDepth.
func (p *ProofTree) UnmarshalJSON(data []byte) error {
	var t jsonTree
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	enc, err := t.appendBinary(nil, 0)
	if err != nil {
		return err
	}
	p.enc = enc
	return nil
}

func (t *jsonTree) appendBinary(b []byte, depth int) ([]byte, error) {
	switch {
	case t == nil:
		return append(b, tagNil), nil
	case depth > maxProofDepth:
		return nil, fmt.Errorf("ads: proof tree deeper than %d", maxProofDepth)
	case t.Stub != nil && t.Rec == nil && t.Left == nil && t.Right == nil:
		return append(append(b, tagStub), t.Stub[:]...), nil
	case t.Stub != nil || t.Rec == nil:
		return nil, errMalformedTree
	case t.Rec.State != NR && t.Rec.State != R:
		return nil, fmt.Errorf("ads: proof tree record with state %d", t.Rec.State)
	}
	b, err := t.Left.appendBinary(t.Rec.appendWire(append(b, tagNode)), depth+1)
	if err != nil {
		return nil, err
	}
	return t.Right.appendBinary(b, depth+1)
}
