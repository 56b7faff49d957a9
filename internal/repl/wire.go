package repl

import (
	"grub/internal/core"
	"grub/internal/merkle"
	"grub/internal/stream"
	"grub/internal/wire"
)

// LogMediaType names the binary replication log encoding (docs/API.md,
// "Binary replication log encoding"). GET /repl/feeds/{id}/shards/{shard}/log
// answers in it, with or without an Accept header.
const LogMediaType = stream.LogMediaType

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
	n := r.Int()
	if n > r.Len()/minEntryWire {
		r.Fail("%d entries in %d bytes", n, r.Len())
		return nil, r.Err()
	}
	if n > 0 {
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
