package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz target for the store's two durable files. Arbitrary bytes as base
// must fail Open or open to exactly the entries they encode; arbitrary
// bytes as wal.log must open to their intact prefix, unless an intact frame
// holds an entry that cannot be replayed. Neither may panic.

// seedFiles builds a small store with the package's own writers and returns
// its checkpoint image and, from writes after it, its WAL: the seeds the
// fuzzer mutates from.
func seedFiles(tb testing.TB) (base, walLog []byte) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i += 7 {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("new"))
		b.Delete([]byte(fmt.Sprintf("key-%03d", i+1)))
		db.Write(b)
	}
	db.Close()
	if base, err = os.ReadFile(filepath.Join(dir, baseName)); err != nil {
		tb.Fatal(err)
	}
	if walLog, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
		tb.Fatal(err)
	}
	return base, walLog
}

// refFrames splits data into intact frames the way the format describes
// them, returning the payloads and the length of the intact prefix.
func refFrames(data []byte) (payloads [][]byte, prefix int) {
	for prefix+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[prefix+4:]))
		if n > len(data)-prefix-8 {
			break
		}
		p := data[prefix+8 : prefix+8+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[prefix:]) {
			break
		}
		payloads = append(payloads, p)
		prefix += 8 + n
	}
	return payloads, prefix
}

type refEntry struct {
	key, val []byte
	seq      uint64
	kind     entryKind
}

func refEntries(payload []byte) ([]refEntry, bool) {
	var out []refEntry
	for len(payload) > 0 {
		key, seq, kind, val, n, err := decodeEntry(payload)
		if err != nil {
			return nil, false
		}
		out = append(out, refEntry{key, val, seq, kind})
		payload = payload[n:]
	}
	return out, true
}

// refBase is the model reading of a checkpoint image: the contents it
// encodes, or ok=false when it is not a valid image.
func refBase(data []byte) (map[string]string, bool) {
	frames, prefix := refFrames(data)
	if prefix != len(data) || len(frames) == 0 || len(frames[0]) != 24 || string(frames[0][:8]) != "GRuBBASE" {
		return nil, false
	}
	seq, count := binary.LittleEndian.Uint64(frames[0][8:]), binary.LittleEndian.Uint64(frames[0][16:])
	model := map[string]string{}
	var prev []byte
	for _, p := range frames[1:] {
		entries, ok := refEntries(p)
		if !ok {
			return nil, false
		}
		for _, e := range entries {
			if e.kind != kindValue || e.seq > seq || (len(model) > 0 && bytes.Compare(prev, e.key) >= 0) {
				return nil, false
			}
			model[string(e.key)], prev = string(e.val), e.key
		}
	}
	return model, uint64(len(model)) == count
}

// refWAL is the model replay of a WAL over no image: the contents of its
// intact prefix and that prefix's length, or ok=false when an intact frame
// holds an undecodable entry or a sequence number out of order.
func refWAL(data []byte) (model map[string]string, prefix int, ok bool) {
	frames, prefix := refFrames(data)
	model = map[string]string{}
	var last uint64
	for _, p := range frames {
		entries, ok := refEntries(p)
		if !ok {
			return nil, 0, false
		}
		for _, e := range entries {
			switch {
			case e.seq == 0: // at or below the (absent) image's seq 0
				continue
			case e.seq <= last:
				return nil, 0, false
			case e.kind == kindValue:
				model[string(e.key)] = string(e.val)
			default:
				delete(model, string(e.key))
			}
			last = e.seq
		}
	}
	return model, prefix, true
}

// openAs writes data as the named file of a fresh store directory and opens
// it.
func openAs(t *testing.T, name string, data []byte) (string, *DB, error) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{})
	return dir, db, err
}

func contents(db *DB) map[string]string {
	out := map[string]string{}
	for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	return out
}

func sameContents(t *testing.T, what string, db *DB, want map[string]string) {
	t.Helper()
	got := contents(db)
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: %q = %q, want %q", what, k, got[k], v)
		}
		if g, err := db.Get([]byte(k)); err != nil || string(g) != v {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", what, k, g, err, v)
		}
	}
}

func checkBaseBytes(t *testing.T, data []byte) {
	dir, db, err := openAs(t, baseName, data)
	want, ok := refBase(data)
	if err != nil {
		if ok {
			t.Fatalf("valid image refused: %v", err)
		}
		return
	}
	defer db.Close()
	if !ok {
		t.Fatalf("invalid image opened, to %d keys", len(contents(db)))
	}
	sameContents(t, "base", db, want)
	if got, _ := os.ReadFile(filepath.Join(dir, baseName)); !bytes.Equal(got, data) {
		t.Fatal("Open rewrote base")
	}
}

func checkWALBytes(t *testing.T, data []byte) {
	dir, db, err := openAs(t, walName, data)
	want, prefix, ok := refWAL(data)
	if err != nil {
		if ok {
			t.Fatalf("WAL with an intact prefix of %d bytes refused: %v", prefix, err)
		}
		return
	}
	defer db.Close()
	if !ok {
		t.Fatal("WAL with a corrupt intact frame opened")
	}
	sameContents(t, "wal", db, want)
	if got, _ := os.ReadFile(filepath.Join(dir, walName)); !bytes.Equal(got, data[:prefix]) {
		t.Fatalf("WAL left at %d bytes, want its intact prefix of %d", len(got), prefix)
	}
}

func FuzzStoreOpen(f *testing.F) {
	base, walLog := seedFiles(f)
	f.Add(base)
	f.Add(walLog)
	f.Add([]byte{})
	// Truncations at interesting boundaries: inside the first header, at the
	// end of the image's header frame, mid-file, one byte short.
	for _, n := range []int{1, 7, 8 + baseHeaderLen, len(base) / 2, len(base) - 1} {
		f.Add(base[:n])
	}
	for _, n := range []int{len(walLog) / 2, len(walLog) - 3} {
		f.Add(walLog[:n])
	}
	// Single-byte corruptions: a CRC, a length, the magic, an entry, the
	// last byte.
	for _, off := range []int{0, 5, 10, len(base) / 2, len(base) - 1} {
		mut := append([]byte(nil), base...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBaseBytes(t, data)
		checkWALBytes(t, data)
	})
}

// TestFuzzSeedsParse keeps the fuzz seeds honest in a plain `go test` run:
// the valid files open to their full contents, every cut or flipped image
// is refused, and every cut WAL opens to its intact prefix.
func TestFuzzSeedsParse(t *testing.T) {
	base, walLog := seedFiles(t)
	if m, ok := refBase(base); !ok || len(m) != 40 {
		t.Fatalf("seed image reads as %d keys, ok=%v", len(m), ok)
	}
	if m, prefix, ok := refWAL(walLog); !ok || prefix != len(walLog) || len(m) != 6 {
		t.Fatalf("seed WAL reads as %d keys over %d/%d bytes, ok=%v", len(m), prefix, len(walLog), ok)
	}
	checkBaseBytes(t, base)
	checkWALBytes(t, walLog)
	for cut := 0; cut < len(base); cut += 13 {
		if _, ok := refBase(base[:cut]); ok {
			t.Fatalf("image cut at %d reads as valid", cut)
		}
		checkBaseBytes(t, base[:cut])
	}
	for off := 0; off < len(base); off += 11 {
		mut := append([]byte(nil), base...)
		mut[off] ^= 0x55
		if _, ok := refBase(mut); ok {
			t.Fatalf("image flipped at %d reads as valid", off)
		}
		checkBaseBytes(t, mut)
	}
	for cut := 0; cut < len(walLog); cut += 5 {
		checkWALBytes(t, walLog[:cut])
	}
}
