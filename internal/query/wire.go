package query

import (
	"errors"

	"grub/internal/ads"
	"grub/internal/merkle"
	"grub/internal/wire"
)

// The binary read encoding of the two read answers (docs/API.md, "Binary
// read encoding"): the same fields as the JSON form, field for field, so a
// decoded answer is the struct the JSON body would have decoded to and
// VerifyGet / VerifyRange treat both alike.

// Presence bits of a GetResult's flags byte. Found is a claim and the three
// pointers are evidence; they travel independently, as they do in JSON, so
// that "found, but no proof" reaches VerifyGet and is rejected there.
const (
	flagFound = 1 << iota
	flagRecord
	flagProof
	flagAbsence
	flagsMask = flagFound | flagRecord | flagProof | flagAbsence
)

// minSliceWire is the shortest RangeResult encoding (five one-byte uvarints,
// the root, the presence byte).
const minSliceWire = 5 + merkle.HashSize + 1

var errNilResult = errors.New("query: nil result has no binary encoding")

// appendAnchor appends the (shard, shards, seq, height, root, count) prefix
// both answers open with.
func appendAnchor(b []byte, shard, shards int, a Anchor) []byte {
	b = wire.AppendInt(b, shard)
	b = wire.AppendInt(b, shards)
	b = wire.AppendUint(b, a.Seq)
	b = wire.AppendUint(b, a.Height)
	b = append(b, a.Root[:]...)
	return wire.AppendInt(b, a.Count)
}

func decodeAnchor(r *wire.Reader) (shard, shards int, a Anchor) {
	shard, shards, a.Seq, a.Height = r.Int(), r.Int(), r.Uint(), r.Uint()
	copy(a.Root[:], r.Bytes(merkle.HashSize))
	a.Count = r.Int()
	return shard, shards, a
}

// AppendBinary appends anchor | key | flags | record? | proof? | absence?.
func (g *GetResult) AppendBinary(b []byte) ([]byte, error) {
	if g == nil {
		return nil, errNilResult
	}
	b = appendAnchor(b, g.Shard, g.Shards, g.Anchor)
	b = wire.AppendString(b, g.Key)
	flags := len(b)
	b = append(b, 0)
	if g.Found {
		b[flags] |= flagFound
	}
	var err error
	if g.Record != nil {
		b[flags] |= flagRecord
		if b, err = g.Record.AppendBinary(b); err != nil {
			return nil, err
		}
	}
	if g.Proof != nil {
		b[flags] |= flagProof
		if b, err = g.Proof.AppendBinary(b); err != nil {
			return nil, err
		}
	}
	if g.Absence != nil {
		b[flags] |= flagAbsence
		if b, err = g.Absence.AppendBinary(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeGetResult decodes a whole binary get body into an answer that keeps
// nothing of body, which may be reused as soon as it returns.
func DecodeGetResult(body []byte) (*GetResult, error) { return DecodeGetAnswer(body, "") }

// DecodeGetAnswer is DecodeGetResult for the answer to a read of key: where
// the answer's key, or its record's, equals key, it is key's own string.
// It reads body in place and makes one allocation for the result, its
// record and its proof, then copies out the value and the path, or an
// absence proof's tree.
func DecodeGetAnswer(body []byte, key string) (*GetResult, error) {
	r := wire.Borrow(body)
	st := new(GetStorage)
	g := &st.res
	g.Shard, g.Shards, g.Anchor = decodeAnchor(r)
	g.Key = r.OwnStrOr(key)
	flags := r.Byte()
	if flags&^flagsMask != 0 {
		r.Fail("get flags %#x", flags)
	}
	g.Found = flags&flagFound != 0
	if flags&flagRecord != 0 {
		ads.DecodeRecordBinary(r, &st.rec, key)
		g.Record = &st.rec
	}
	if flags&flagProof != 0 {
		merkle.DecodeProof(r, &st.proof)
		g.Proof = &st.proof
	}
	if flags&flagAbsence != 0 {
		g.Absence = ads.DecodeAbsenceProof(r)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppendRangeResults appends uvarint n | n × (anchor | present | range?),
// one slice per shard.
func AppendRangeResults(b []byte, slices []RangeResult) ([]byte, error) {
	b = wire.AppendInt(b, len(slices))
	for i := range slices {
		s := &slices[i]
		b = appendAnchor(b, s.Shard, s.Shards, s.Anchor)
		if s.Range == nil {
			b = append(b, 0)
			continue
		}
		var err error
		if b, err = s.Range.AppendBinary(append(b, 1)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeRangeResults decodes a whole binary range body. body may be reused
// as soon as it returns.
func DecodeRangeResults(body []byte) ([]RangeResult, error) {
	r := wire.NewReader(body)
	var slices []RangeResult
	if n := r.Count(minSliceWire); n > 0 {
		slices = make([]RangeResult, n)
	}
	for i := range slices {
		s := &slices[i]
		s.Shard, s.Shards, s.Anchor = decodeAnchor(r)
		switch present := r.Byte(); present {
		case 0:
		case 1:
			s.Range = ads.DecodeNRRange(r)
		default:
			r.Fail("range presence byte %d", present)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return slices, nil
}
