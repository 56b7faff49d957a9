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
func appendAnchor(b []byte, shard, shards int, seq, height uint64, root merkle.Hash, count int) []byte {
	b = wire.AppendInt(b, shard)
	b = wire.AppendInt(b, shards)
	b = wire.AppendUint(b, seq)
	b = wire.AppendUint(b, height)
	b = append(b, root[:]...)
	return wire.AppendInt(b, count)
}

func decodeAnchor(r *wire.Reader, shard, shards *int, seq, height *uint64, root *merkle.Hash, count *int) {
	*shard, *shards, *seq, *height = r.Int(), r.Int(), r.Uint(), r.Uint()
	copy(root[:], r.Bytes(merkle.HashSize))
	*count = r.Int()
}

// AppendBinary appends anchor | key | flags | record? | proof? | absence?.
func (g *GetResult) AppendBinary(b []byte) ([]byte, error) {
	if g == nil {
		return nil, errNilResult
	}
	b = appendAnchor(b, g.Shard, g.Shards, g.Seq, g.Height, g.Root, g.Count)
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

// DecodeGetResult decodes a whole binary get body. body may be reused as
// soon as it returns.
func DecodeGetResult(body []byte) (*GetResult, error) {
	r := wire.NewReader(body)
	g := new(GetResult)
	decodeAnchor(r, &g.Shard, &g.Shards, &g.Seq, &g.Height, &g.Root, &g.Count)
	g.Key = r.Str()
	flags := r.Byte()
	if flags&^flagsMask != 0 {
		r.Fail("get flags %#x", flags)
	}
	g.Found = flags&flagFound != 0
	if flags&flagRecord != 0 {
		g.Record = ads.DecodeRecordBinary(r)
	}
	if flags&flagProof != 0 {
		g.Proof = merkle.DecodeProof(r)
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
		b = appendAnchor(b, s.Shard, s.Shards, s.Seq, s.Height, s.Root, s.Count)
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
	n := r.Int()
	if n > r.Len()/minSliceWire {
		r.Fail("%d slices in %d bytes", n, r.Len())
	}
	var slices []RangeResult
	if r.Err() == nil && n > 0 {
		slices = make([]RangeResult, n)
	}
	for i := range slices {
		s := &slices[i]
		decodeAnchor(r, &s.Shard, &s.Shards, &s.Seq, &s.Height, &s.Root, &s.Count)
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
