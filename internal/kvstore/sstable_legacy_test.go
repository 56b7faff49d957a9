package kvstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyFilterHex is the bloom filter (bit array | probe count) the build
// before the filters were removed wrote for fuzzEntries' 40 keys at 10
// bits/key — captured from that build, so legacyTableBytes is byte for byte
// a table it produced.
const legacyFilterHex = "232b5f9f8f71c1886633744bc10536b1663da8d1948c1671cd257b743947d4838c27a75a489b278e9d5228aa269cde06a18406"

// legacyTableBytes hand-assembles a table the way builds with bloom filters
// laid it out — entries | index | non-empty filter region | v2 footer, the
// CRC over all three regions — without going through writeSSTable, and
// returns it with the bounds of the filter region.
func legacyTableBytes() (raw []byte, filterStart, filterEnd int) {
	var body []byte
	var idxOffsets []int
	var idxKeys [][]byte
	entries := fuzzEntries()
	for i, e := range entries {
		if i%indexInterval == 0 {
			idxOffsets = append(idxOffsets, len(body))
			idxKeys = append(idxKeys, e.key.user)
		}
		body = appendEntry(body, e.key.user, e.key.seq, e.key.kind, e.val)
	}
	indexOffset := len(body)
	for i, k := range idxKeys {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.LittleEndian.AppendUint64(body, uint64(idxOffsets[i]))
	}
	filterStart = len(body)
	filter, err := hex.DecodeString(legacyFilterHex)
	if err != nil {
		panic(err)
	}
	body = append(body, filter...)
	filterEnd = len(body)

	raw = binary.LittleEndian.AppendUint64(body, uint64(indexOffset))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(filterStart))
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(idxKeys)))
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(entries)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
	raw = binary.LittleEndian.AppendUint64(raw, sstMagic2)
	return raw, filterStart, filterEnd
}

// installTable lays raw down as a store directory's only table: file 1 at
// level 1, named by a manifest the way a checkpoint leaves it.
func installTable(t *testing.T, raw []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(sstFileName(dir, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("1 1 139\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLegacyFilterRegionTable: a store holding a table from a build that
// wrote bloom filters opens, and the table serves every read the way one
// written today does; the region it no longer reads is still under the CRC.
func TestLegacyFilterRegionTable(t *testing.T) {
	raw, filterStart, filterEnd := legacyTableBytes()
	if filterEnd == filterStart {
		t.Fatal("fixture has an empty filter region")
	}

	db, err := Open(installTable(t, raw), Options{})
	if err != nil {
		t.Fatalf("open store with a legacy table: %v", err)
	}
	defer db.Close()
	want := make(map[string]string) // live keys
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%03d", i)
		got, err := db.Get([]byte(key))
		if i%7 == 0 {
			if err != ErrNotFound {
				t.Fatalf("Get(%s) = %q, %v; want ErrNotFound (tombstone)", key, got, err)
			}
			continue
		}
		want[key] = fmt.Sprintf("value-%d", i)
		if err != nil || string(got) != want[key] {
			t.Fatalf("Get(%s) = %q, %v; want %q", key, got, err, want[key])
		}
	}
	if _, err := db.Get([]byte("key-040")); err != ErrNotFound {
		t.Fatalf("Get of an absent key = %v, want ErrNotFound", err)
	}
	n := 0
	for it := db.NewIterator(); it.Valid(); it.Next() {
		if v, ok := want[string(it.Key())]; !ok || v != string(it.Value()) {
			t.Fatalf("iterator yields %q=%q, want %q (live=%v)", it.Key(), it.Value(), v, ok)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("iterator yields %d keys, want %d", n, len(want))
	}

	// Writes and a compaction over the legacy table fold it into one
	// written today.
	mustPut(t, db, "key-000", "back")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over a legacy table: %v", err)
	}
	if got, err := db.Get([]byte("key-000")); err != nil || string(got) != "back" {
		t.Fatalf("Get(key-000) after checkpoint = %q, %v", got, err)
	}
	if got := db.Len(); got != len(want)+1 {
		t.Fatalf("Len after checkpoint = %d, want %d", got, len(want)+1)
	}

	for _, off := range []int{filterStart, (filterStart + filterEnd) / 2, filterEnd - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		_, err := Open(installTable(t, mut), Options{})
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("flip at filter-region byte %d: Open = %v, want checksum mismatch", off-filterStart, err)
		}
	}
}
