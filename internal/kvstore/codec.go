// Package kvstore is the shard op-log store: a small durable key-value
// store with a LevelDB-style write path, where the GRuB paper's prototype
// keeps the storage provider's records in Google LevelDB. Here the record
// set is an in-memory treap and the store's one production caller is the
// shard persister, which appends one log record per applied batch, deletes
// the last one on a rollback, scans the log range on open, and keeps a
// single snapshot key. The package provides what that takes: a map of the
// live keys, each to its newest value, kept durable in two files:
//
//   - wal.log, a CRC-framed write-ahead log of every write batch, and
//   - base, the checkpoint image: the live set in the same framing,
//     written by Checkpoint, which then restarts wal.log empty.
//
// A write sets its key in the map and a delete removes it, so the map
// holds no old versions and no tombstones. An iterator copies and sorts
// the live keys from its start key on when it is made, so it is a stable
// view of the store as of its creation. There are no table files, levels
// or background work: the caller's live set is one snapshot record plus the
// log since it (docs/ARCHITECTURE.md, "Storage engine", has the measured
// traffic). All public methods are safe for concurrent use by multiple
// goroutines.
package kvstore

import (
	"encoding/binary"
	"errors"
)

// entryKind discriminates live values from deletion tombstones.
type entryKind uint8

const (
	kindValue entryKind = iota + 1
	kindDelete
)

// appendEntry serializes one entry as:
//
//	varint(len key) | key | varint(seq) | kind (1B) | varint(len val) | val
func appendEntry(dst []byte, key string, seq uint64, kind entryKind, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, seq)
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return dst
}

// errCorruptEntry reports an entry that does not decode.
var errCorruptEntry = errors.New("kvstore: corrupt entry")

// decodeEntry parses one entry from buf, returning the parsed fields and the
// number of bytes consumed. The returned slices alias buf.
func decodeEntry(buf []byte) (key []byte, seq uint64, kind entryKind, val []byte, n int, err error) {
	uvarint := func() uint64 {
		v, m := binary.Uvarint(buf[n:])
		if m <= 0 {
			err = errCorruptEntry
			return 0
		}
		n += m
		return v
	}
	// take compares lengths in uint64 space: a huge length must not wrap
	// negative when truncated to int.
	take := func(l uint64) []byte {
		if err != nil || l > uint64(len(buf)-n) {
			err = errCorruptEntry
			return nil
		}
		n += int(l)
		return buf[n-int(l) : n]
	}
	key = take(uvarint())
	seq = uvarint()
	if err == nil && n < len(buf) {
		kind = entryKind(buf[n])
		n++
	}
	if kind != kindValue && kind != kindDelete {
		err = errCorruptEntry
	}
	val = take(uvarint())
	if err != nil {
		return nil, 0, 0, nil, 0, err
	}
	return key, seq, kind, val, n, nil
}
