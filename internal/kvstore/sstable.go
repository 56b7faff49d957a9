package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// SSTable layout, version 2 (data + sparse index + filter region + footer):
//
//	entries...                 (serialized with appendEntry, internal-key order)
//	index:                     repeated { varint(len key) | key | offset (8B) }
//	filter region:             empty in every table this package writes
//	footer:                    indexOffset (8B) | filterOffset (8B) |
//	                           indexCount (4B) | entryCount (4B) |
//	                           crc32(data+index+filter) (4B) | magic (8B)
//
// The sparse index holds the first user key of every indexInterval-th entry,
// so point lookups binary-search the index and then scan at most
// indexInterval entries. The filter region is where earlier builds kept a
// per-table bloom filter; the store's one caller never asks a table for a
// key it does not hold, so nothing is written there now, and a table from an
// older build opens with its region covered by the CRC and otherwise
// skipped. Version-1 tables (28-byte footer, no region) are still readable.

const (
	sstMagic      = 0x4752754253535431 // "GRuBSST1"
	sstMagic2     = 0x4752754253535432 // "GRuBSST2"
	indexInterval = 16
	footerV1Size  = 8 + 4 + 4 + 4 + 8
	footerV2Size  = 8 + 8 + 4 + 4 + 4 + 8
)

// sstEntry is a decoded table entry held in memory during builds and merges.
type sstEntry struct {
	key internalKey
	val []byte
}

// sstable is an open, immutable table file fully resident in memory.
// Tables in the GRuB experiments are small (at most a few MiB); holding them
// resident keeps reads deterministic and simple. The on-disk format is still
// honored so that reopening a store works.
type sstable struct {
	num      uint64 // file number
	level    int
	data     []byte   // raw entry region
	offsets  []int    // index: entry offsets into data (sparse)
	firstKey [][]byte // index: user key at each offset
	count    int      // number of entries
	bytes    int      // on-disk size
	smallest []byte   // first user key in the table
	largest  []byte   // last user key in the table
}

func sstFileName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.sst", dir, num)
}

// writeSSTable serializes entries (already in internal-key order) to path.
func writeSSTable(path string, entries []sstEntry) error {
	var data []byte
	var idxOffsets []int
	var idxKeys [][]byte
	for i, e := range entries {
		if i%indexInterval == 0 {
			idxOffsets = append(idxOffsets, len(data))
			idxKeys = append(idxKeys, e.key.user)
		}
		data = appendEntry(data, e.key.user, e.key.seq, e.key.kind, e.val)
	}
	indexOffset := len(data)
	for i, k := range idxKeys {
		data = binary.AppendUvarint(data, uint64(len(k)))
		data = append(data, k...)
		var off [8]byte
		binary.LittleEndian.PutUint64(off[:], uint64(idxOffsets[i]))
		data = append(data, off[:]...)
	}
	filterOffset := len(data) // empty filter region
	sum := crc32.ChecksumIEEE(data)
	var footer [footerV2Size]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOffset))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(filterOffset))
	binary.LittleEndian.PutUint32(footer[16:20], uint32(len(idxKeys)))
	binary.LittleEndian.PutUint32(footer[20:24], uint32(len(entries)))
	binary.LittleEndian.PutUint32(footer[24:28], sum)
	binary.LittleEndian.PutUint64(footer[28:36], sstMagic2)
	data = append(data, footer[:]...)

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("kvstore: write sstable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("kvstore: rename sstable: %w", err)
	}
	return nil
}

// openSSTable reads and validates the table at path: footer magic, a CRC
// over the whole body, index sanity (in-bounds, monotonic offsets), and a
// full decode pass that must yield exactly the footer's entry count in
// strict internal-key order. A table that passes cannot
// panic or serve wrong bytes later: every read path walks structures this
// validation covered.
func openSSTable(path string, num uint64, level int) (*sstable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open sstable: %w", err)
	}
	t, err := parseSSTable(raw, num, level)
	if err != nil {
		return nil, fmt.Errorf("kvstore: sstable %s: %w", path, err)
	}
	return t, nil
}

// parseSSTable validates raw table bytes (the fuzz entry point).
func parseSSTable(raw []byte, num uint64, level int) (*sstable, error) {
	if len(raw) < footerV1Size {
		return nil, fmt.Errorf("too short (%d bytes)", len(raw))
	}
	var (
		indexOffset, filterOffset int
		idxCount, entryCount      int
		wantSum                   uint32
		body                      []byte
	)
	switch binary.LittleEndian.Uint64(raw[len(raw)-8:]) {
	case sstMagic2:
		if len(raw) < footerV2Size {
			return nil, fmt.Errorf("truncated v2 footer")
		}
		footer := raw[len(raw)-footerV2Size:]
		indexOffset = int(binary.LittleEndian.Uint64(footer[0:8]))
		filterOffset = int(binary.LittleEndian.Uint64(footer[8:16]))
		idxCount = int(binary.LittleEndian.Uint32(footer[16:20]))
		entryCount = int(binary.LittleEndian.Uint32(footer[20:24]))
		wantSum = binary.LittleEndian.Uint32(footer[24:28])
		body = raw[:len(raw)-footerV2Size]
	case sstMagic:
		footer := raw[len(raw)-footerV1Size:]
		indexOffset = int(binary.LittleEndian.Uint64(footer[0:8]))
		idxCount = int(binary.LittleEndian.Uint32(footer[8:12]))
		entryCount = int(binary.LittleEndian.Uint32(footer[12:16]))
		wantSum = binary.LittleEndian.Uint32(footer[16:20])
		body = raw[:len(raw)-footerV1Size]
		filterOffset = len(body) // v1: no filter region
	default:
		return nil, fmt.Errorf("bad magic")
	}
	if crc32.ChecksumIEEE(body) != wantSum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	if indexOffset < 0 || filterOffset < indexOffset || filterOffset > len(body) {
		return nil, fmt.Errorf("corrupt region offsets (index %d, filter %d, body %d)", indexOffset, filterOffset, len(body))
	}
	if entryCount < 0 || idxCount < 0 {
		return nil, fmt.Errorf("negative counts")
	}
	t := &sstable{num: num, level: level, data: body[:indexOffset], count: entryCount, bytes: len(raw)}
	// body[filterOffset:] is a legacy filter region: checksummed above, unread.
	idx := body[indexOffset:filterOffset]
	off := 0
	for i := 0; i < idxCount; i++ {
		klen, m := binary.Uvarint(idx[off:])
		if m <= 0 || klen > uint64(len(idx)-off-m) {
			return nil, fmt.Errorf("corrupt index entry %d", i)
		}
		off += m
		key := idx[off : off+int(klen)]
		off += int(klen)
		if off+8 > len(idx) {
			return nil, fmt.Errorf("corrupt index entry %d", i)
		}
		entryOff := binary.LittleEndian.Uint64(idx[off : off+8])
		off += 8
		if entryOff > uint64(len(t.data)) {
			return nil, fmt.Errorf("index entry %d offset %d out of range", i, entryOff)
		}
		t.firstKey = append(t.firstKey, key)
		t.offsets = append(t.offsets, int(entryOff))
	}
	if off != len(idx) {
		return nil, fmt.Errorf("trailing index bytes")
	}
	// Full decode pass: entry framing, count, strict internal-key order, and
	// the index's exact correspondence to the entry stream (every offset an
	// entry boundary, every index key the entry's user key) are all pinned
	// at open, so iteration can never fail — or lie — later.
	n := 0
	pos := 0
	var prev internalKey
	for pos < len(t.data) {
		key, seq, kind, _, m, derr := decodeEntry(t.data[pos:])
		if derr != nil {
			return nil, fmt.Errorf("entry %d: %w", n, derr)
		}
		ik := internalKey{user: key, seq: seq, kind: kind}
		if n == 0 {
			t.smallest = key
		} else if compareInternal(prev, ik) >= 0 {
			return nil, fmt.Errorf("entries out of order at %d", n)
		}
		if n%indexInterval == 0 {
			j := n / indexInterval
			if j >= idxCount || t.offsets[j] != pos || compareBytes(t.firstKey[j], key) != 0 {
				return nil, fmt.Errorf("index does not match entry %d", n)
			}
		}
		t.largest = key
		prev = ik
		pos += m
		n++
	}
	if n != entryCount {
		return nil, fmt.Errorf("footer says %d entries, data holds %d", entryCount, n)
	}
	expectIdx := 0
	if entryCount > 0 {
		expectIdx = (entryCount + indexInterval - 1) / indexInterval
	}
	if idxCount != expectIdx {
		return nil, fmt.Errorf("footer says %d index entries, want %d", idxCount, expectIdx)
	}
	return t, nil
}

// get returns the newest version of key stored in this table.
func (t *sstable) get(key []byte) (val []byte, deleted, ok bool) {
	it := t.iterator()
	it.Seek(key)
	if !it.Valid() {
		return nil, false, false
	}
	// First entry in internal-key order = newest version in this table.
	ik, v := it.Entry()
	if compareBytes(ik.user, key) != 0 {
		return nil, false, false
	}
	if ik.kind == kindDelete {
		return nil, true, true
	}
	return v, false, true
}

// overlaps reports whether the table's key range intersects [lo, hi]
// (inclusive; nil bounds mean unbounded).
func (t *sstable) overlaps(lo, hi []byte) bool {
	if t.count == 0 {
		return false
	}
	if hi != nil && compareBytes(t.smallest, hi) > 0 {
		return false
	}
	if lo != nil && compareBytes(t.largest, lo) < 0 {
		return false
	}
	return true
}

// sstIterator walks a table in internal-key order.
type sstIterator struct {
	t   *sstable
	off int
	ik  internalKey
	val []byte
	ok  bool
}

func (t *sstable) iterator() *sstIterator { return &sstIterator{t: t} }

func (it *sstIterator) SeekToFirst() {
	it.off = 0
	it.advance()
}

// Seek positions the iterator at the first entry whose user key is >= user.
func (it *sstIterator) Seek(user []byte) {
	t := it.t
	// Binary search the sparse index for the last block whose first key is
	// strictly below user. A block whose first key EQUALS user cannot be the
	// starting point: the run of user's versions may begin in the previous
	// block, and starting at the equal entry would skip the newer versions
	// before it.
	i := sort.Search(len(t.firstKey), func(i int) bool {
		return compareBytes(t.firstKey[i], user) >= 0
	})
	if i == 0 {
		it.off = 0
	} else {
		it.off = t.offsets[i-1]
	}
	it.advance()
	for it.ok && compareBytes(it.ik.user, user) < 0 {
		it.advance()
	}
}

func (it *sstIterator) advance() {
	if it.off >= len(it.t.data) {
		it.ok = false
		return
	}
	// openSSTable fully validated the entry stream, so decode cannot fail
	// on an opened table.
	key, seq, kind, val, n, err := decodeEntry(it.t.data[it.off:])
	if err != nil {
		it.ok = false
		return
	}
	it.ik = internalKey{user: key, seq: seq, kind: kind}
	it.val = val
	it.off += n
	it.ok = true
}

func (it *sstIterator) Valid() bool { return it.ok }

func (it *sstIterator) Next() { it.advance() }

func (it *sstIterator) Entry() (internalKey, []byte) { return it.ik, it.val }
