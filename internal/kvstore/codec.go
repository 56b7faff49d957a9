// Package kvstore is the shard op-log store: a small log-structured
// key-value engine in the spirit of Google LevelDB, which the GRuB paper's
// prototype keeps the storage provider's records in. Here the record set is
// an in-memory treap and the engine's one production caller is the shard
// persister, which appends one log record per applied batch, scans the log
// range, and keeps a single snapshot key. The package provides what that
// takes:
//
//   - a write-ahead log for crash safety,
//   - an in-memory skiplist memtable,
//   - immutable, CRC-validated sorted-string-table (SSTable) files on disk,
//   - leveled compaction on a background worker, and
//   - ordered iterators with tombstone suppression, each a stable view of
//     the store as of its creation.
//
// It carries no per-table filters, no record cache and no point-in-time
// read API: the caller never looks up an absent key in a table, never
// re-reads a key, and never reads the past (docs/ARCHITECTURE.md, "Storage
// engine", has the measured traffic). All public methods are safe for
// concurrent use by multiple goroutines.
package kvstore

import (
	"encoding/binary"
	"fmt"
)

// entryKind discriminates live values from deletion tombstones.
type entryKind uint8

const (
	kindValue entryKind = iota + 1
	kindDelete
)

// internalKey orders user keys ascending and, within a user key, sequence
// numbers descending so the newest version is met first during iteration.
type internalKey struct {
	user []byte
	seq  uint64
	kind entryKind
}

// compareInternal orders internal keys: user key ascending, then seq
// descending (newer first).
func compareInternal(a, b internalKey) int {
	if c := compareBytes(a.user, b.user); c != 0 {
		return c
	}
	switch {
	case a.seq > b.seq:
		return -1
	case a.seq < b.seq:
		return 1
	}
	return 0
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// appendEntry serializes one entry as:
//
//	varint(len key) | key | seq (8B) | kind (1B) | varint(len val) | val
func appendEntry(dst []byte, key []byte, seq uint64, kind entryKind, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, seq)
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return dst
}

// decodeEntry parses one entry from buf, returning the parsed fields and the
// number of bytes consumed. The returned slices alias buf.
func decodeEntry(buf []byte) (key []byte, seq uint64, kind entryKind, val []byte, n int, err error) {
	off := 0
	klen, m := binary.Uvarint(buf[off:])
	if m <= 0 {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: key length")
	}
	off += m
	// Compare lengths in uint64 space: a huge klen must not wrap negative
	// when truncated to int.
	if klen > uint64(len(buf)-off) {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: key bytes")
	}
	key = buf[off : off+int(klen)]
	off += int(klen)
	seq, m = binary.Uvarint(buf[off:])
	if m <= 0 {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: seq")
	}
	off += m
	if off >= len(buf) {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: kind")
	}
	kind = entryKind(buf[off])
	if kind != kindValue && kind != kindDelete {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: bad kind %d", kind)
	}
	off++
	vlen, m := binary.Uvarint(buf[off:])
	if m <= 0 {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: value length")
	}
	off += m
	if vlen > uint64(len(buf)-off) {
		return nil, 0, 0, nil, 0, fmt.Errorf("kvstore: corrupt entry: value bytes")
	}
	val = buf[off : off+int(vlen)]
	off += int(vlen)
	return key, seq, kind, val, off, nil
}
