package repl

import (
	"bytes"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/merkle"
	"grub/internal/stream"
	"grub/internal/wire"
)

// LogMediaType names the binary replication log encoding (docs/API.md,
// "Binary replication log encoding"). GET /repl/feeds/{id}/shards/{shard}/log
// answers in it, with or without an Accept header.
const LogMediaType = stream.LogMediaType

// ImageMediaType names the binary shard image encoding (docs/API.md, "Binary
// shard image encoding"). GET /repl/feeds/{id}/shards/{shard}/snapshot
// answers in it, with or without an Accept header.
const ImageMediaType = stream.ImageMediaType

// minEntryWire is an entry's smallest encoding, which bounds a decoded entry
// count by the bytes left: seq, an empty batch, the root, count and height.
const minEntryWire = 4 + merkle.HashSize

// AppendLogPage appends p in the binary log encoding: int n, then per entry
// seq, its ops (core.AppendOps), the 32-byte root, count and height; then
// floorSeq, leaderSeq and the snapshot-required byte (0 or 1).
func AppendLogPage(b []byte, p *LogPage) []byte {
	b = wire.AppendInt(b, len(p.Entries))
	for i := range p.Entries {
		e := &p.Entries[i]
		b = core.AppendOps(wire.AppendUint(b, e.Seq), e.Ops)
		b = wire.AppendUint(wire.AppendInt(append(b, e.Root[:]...), e.Count), e.Height)
	}
	b = wire.AppendUint(wire.AppendUint(b, p.FloorSeq), p.LeaderSeq)
	if p.SnapshotRequired {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeLogPage decodes a page from an untrusted body. Every key and value
// is an allocation of its own (core.ReadOps), because the follower's shards
// keep the ops; nothing aliases body, which the caller may reuse as soon as
// DecodeLogPage returns.
func DecodeLogPage(body []byte) (*LogPage, error) {
	r := wire.Borrow(body)
	p := new(LogPage)
	if n := r.Count(minEntryWire); n > 0 {
		p.Entries = make([]Entry, n)
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		e.Seq = r.Uint()
		e.Ops = core.ReadOps(r)
		copy(e.Root[:], r.Bytes(merkle.HashSize))
		e.Count = r.Int()
		e.Height = r.Uint()
	}
	p.FloorSeq = r.Uint()
	p.LeaderSeq = r.Uint()
	switch snap := r.Byte(); snap {
	case 0, 1:
		p.SnapshotRequired = snap == 1
	default:
		r.Fail("snapshot-required byte %d", snap)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// AppendSnapshot appends s in the binary image encoding: shard, seq, the
// 32-byte root, count, height, ops, base Gas and snapshots, then the feed's
// state (core.FeedSnapshot) to the end. The snapshot route answers these
// bytes and a shard store keeps them as its snapshot record.
func AppendSnapshot(b []byte, s *Snapshot) []byte {
	b = wire.AppendUint(wire.AppendInt(b, s.Shard), s.Seq)
	b = wire.AppendUint(wire.AppendInt(append(b, s.Root[:]...), s.Count), s.Height)
	b = wire.AppendInt(wire.AppendUint(wire.AppendInt(b, s.Ops), uint64(s.BaseGas)), s.Snapshots)
	return append(b, s.Feed.Enc...)
}

// DecodeSnapshot decodes an image from an untrusted body. It checks the
// frame only: the feed state is decoded, and the anchor checked, where the
// image is installed. Nothing aliases body.
func DecodeSnapshot(body []byte) (*Snapshot, error) {
	r := wire.Borrow(body)
	s := &Snapshot{Shard: r.Int()}
	s.Seq = r.Uint()
	copy(s.Root[:], r.Bytes(merkle.HashSize))
	s.Count, s.Height = r.Int(), r.Uint()
	s.Ops, s.BaseGas, s.Snapshots = r.Int(), gas.Gas(r.Uint()), r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.Feed = &core.FeedSnapshot{Enc: bytes.Clone(r.Rest())}
	return s, nil
}
