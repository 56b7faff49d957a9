package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the storage engine's durable formats. The contract under
// test: arbitrarily corrupted or truncated bytes must produce an error at
// open — never a panic, and never a table that later serves wrong values.
// parseSSTable front-loads all validation precisely so these hold.

// fuzzEntries is the fixture both seed tables hold: 40 keys, tombstones on
// every seventh, a second (older) version of every third.
func fuzzEntries() []sstEntry {
	var entries []sstEntry
	seq := uint64(100)
	for i := 0; i < 40; i++ {
		user := []byte(fmt.Sprintf("key-%03d", i))
		kind := kindValue
		if i%7 == 0 {
			kind = kindDelete
		}
		entries = append(entries, sstEntry{
			key: internalKey{user: user, seq: seq, kind: kind},
			val: []byte(fmt.Sprintf("value-%d", i)),
		})
		if i%3 == 0 { // second, older version of some keys
			entries = append(entries, sstEntry{
				key: internalKey{user: user, seq: seq - 50, kind: kindValue},
				val: []byte("old"),
			})
		}
		seq++
	}
	return entries
}

// fuzzTableBytes builds a small valid table with the package's writer and
// returns its raw bytes — the seed the fuzzer mutates from.
func fuzzTableBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.sst")
	if err := writeSSTable(path, fuzzEntries()); err != nil {
		tb.Fatalf("write seed table: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("read seed table: %v", err)
	}
	return raw
}

// v1FooterTable rewrites a valid table in the retired version-1 layout:
// the same body under a 28-byte footer (no filter offset) ending in the
// "GRuBSST1" magic. The reader no longer accepts it.
func v1FooterTable(v2 []byte) []byte {
	footer := v2[len(v2)-footerV2Size:]
	out := append([]byte(nil), v2[:len(v2)-footerV2Size]...)
	out = append(out, footer[0:8]...)   // index offset
	out = append(out, footer[16:28]...) // index count, entry count, crc
	return binary.LittleEndian.AppendUint64(out, 0x4752754253535431)
}

func FuzzSSTableOpen(f *testing.F) {
	// The legacy table has all three body regions, so the boundary cuts and
	// per-region flips are taken from it.
	legacy, _, _ := legacyTableBytes()
	f.Add(legacy)
	f.Add(fuzzTableBytes(f))
	// Truncations at interesting boundaries.
	for _, n := range []int{0, 1, 7, len(legacy) / 2, len(legacy) - 1, len(legacy) - footerV2Size, len(legacy) - footerV2Size + 4} {
		f.Add(legacy[:n])
	}
	// Single-byte corruptions in each region: entries, index, filter, footer.
	for _, off := range []int{3, len(legacy) / 2, len(legacy) - footerV2Size - 1, len(legacy) - footerV2Size + 1, len(legacy) - 9} {
		mut := append([]byte(nil), legacy...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add(v1FooterTable(fuzzTableBytes(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := parseSSTable(data, 1, 0)
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		// Accepted tables must be fully servable: iterate everything in
		// strict order and point-read every key without panicking.
		it := tab.iterator()
		n := 0
		var prev internalKey
		for it.SeekToFirst(); it.Valid(); it.Next() {
			ik, _ := it.Entry()
			if n > 0 && compareInternal(prev, ik) >= 0 {
				t.Fatalf("accepted table iterates out of order")
			}
			prev = internalKey{user: append([]byte(nil), ik.user...), seq: ik.seq, kind: ik.kind}
			if _, _, ok := tab.get(ik.user); !ok {
				t.Fatalf("accepted table misses its own key %q", ik.user)
			}
			it2 := tab.iterator()
			it2.Seek(ik.user)
			if !it2.Valid() {
				t.Fatalf("Seek(%q) exhausted on accepted table", ik.user)
			}
			if got, _ := it2.Entry(); !bytes.Equal(got.user, ik.user) {
				t.Fatalf("Seek(%q) landed on %q", ik.user, got.user)
			}
			n++
		}
		if n != tab.count {
			t.Fatalf("iterated %d entries, footer claims %d", n, tab.count)
		}
	})
}

// TestFuzzSeedsParse keeps the fuzz seeds honest in a plain `go test` run:
// the valid seeds must parse, the corrupt ones must be rejected.
func TestFuzzSeedsParse(t *testing.T) {
	seed, _, _ := legacyTableBytes()
	if _, err := parseSSTable(seed, 1, 0); err != nil {
		t.Fatalf("valid legacy seed rejected: %v", err)
	}
	if _, err := parseSSTable(fuzzTableBytes(t), 1, 0); err != nil {
		t.Fatalf("valid seed from the writer rejected: %v", err)
	}
	for cut := 0; cut < len(seed); cut += 13 {
		if _, err := parseSSTable(seed[:cut], 1, 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for off := 0; off < len(seed); off += 11 {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0x55
		tab, err := parseSSTable(mut, 1, 0)
		if err != nil {
			continue
		}
		// A flip the CRC cannot see (e.g. inside the footer's own CRC field
		// region is covered; nothing here should be accepted silently except
		// a flip that produces another fully-consistent table, which a
		// single XOR cannot).
		_ = tab
		t.Fatalf("corruption at offset %d accepted", off)
	}
}
