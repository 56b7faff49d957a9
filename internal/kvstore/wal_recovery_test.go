package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash-recovery coverage for a torn or truncated *final* WAL record: every
// fully-written batch must survive, the damaged tail must be discarded
// atomically (a batch is all-or-nothing), and the reopened DB must be fully
// usable — including surviving another write/reopen cycle, which proves the
// recovered log is appendable, not merely readable.

const (
	tornBatches       = 8 // full batches written before the damaged one
	tornEntriesPer    = 4
	tornRecordHeader  = 8 // crc32 (4B) + payload length (4B), see wal.go
	tornValueTemplate = "val-%02d-%02d"
)

// writeTornWALFixture builds a DB whose WAL holds tornBatches+1 batch
// records, closes it, and returns the byte offset where the final record
// starts (parsed from the record framing, not assumed).
func writeTornWALFixture(t *testing.T, dir string) (walPath string, lastRecordOff int) {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi <= tornBatches; bi++ {
		b := NewBatch()
		for e := 0; e < tornEntriesPer; e++ {
			b.Put([]byte(fmt.Sprintf("key-%02d-%02d", bi, e)),
				[]byte(fmt.Sprintf(tornValueTemplate, bi, e)))
		}
		if err := db.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	walPath = filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	off, records := 0, 0
	for off < len(data) {
		n := int(binary.LittleEndian.Uint32(data[off+4 : off+tornRecordHeader]))
		records++
		if records == tornBatches+1 {
			lastRecordOff = off
		}
		off += tornRecordHeader + n
	}
	if records != tornBatches+1 || off != len(data) {
		t.Fatalf("fixture WAL has %d records over %d/%d bytes, want %d records", records, off, len(data), tornBatches+1)
	}
	return walPath, lastRecordOff
}

// checkRecovered reopens the store and asserts exactly the first
// tornBatches batches are present (the damaged final batch vanished whole),
// then proves the DB is writable and survives one more clean reopen.
func checkRecovered(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after damage: %v", err)
	}
	for bi := 0; bi < tornBatches; bi++ {
		for e := 0; e < tornEntriesPer; e++ {
			key := fmt.Sprintf("key-%02d-%02d", bi, e)
			v, err := db.Get([]byte(key))
			if err != nil || string(v) != fmt.Sprintf(tornValueTemplate, bi, e) {
				t.Fatalf("intact batch lost: %s = %q, %v", key, v, err)
			}
		}
	}
	// The torn batch is gone atomically: not even its first entry replays.
	for e := 0; e < tornEntriesPer; e++ {
		key := fmt.Sprintf("key-%02d-%02d", tornBatches, e)
		if v, err := db.Get([]byte(key)); err == nil {
			t.Fatalf("entry %s from the torn batch survived: %q", key, v)
		}
	}
	// The store accepts new writes after recovery...
	if err := db.Put([]byte("post-recovery"), []byte("ok")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and the resulting log replays clean on the next open.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("post-recovery")); err != nil || string(v) != "ok" {
		t.Fatalf("post-recovery key = %q, %v", v, err)
	}
	if v, err := db2.Get([]byte("key-00-00")); err != nil || string(v) != "val-00-00" {
		t.Fatalf("first batch after second reopen = %q, %v", v, err)
	}
}

func TestWALTornFinalRecordRecovery(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, path string, lastOff int)
	}{
		{"truncated-mid-payload", func(t *testing.T, path string, lastOff int) {
			// Crash mid-write: header intact, payload cut short.
			truncateTo(t, path, lastOff+tornRecordHeader+3)
		}},
		{"truncated-mid-header", func(t *testing.T, path string, lastOff int) {
			truncateTo(t, path, lastOff+tornRecordHeader/2)
		}},
		{"truncated-empty-payload", func(t *testing.T, path string, lastOff int) {
			// Header fully written, zero payload bytes made it to disk.
			truncateTo(t, path, lastOff+tornRecordHeader)
		}},
		{"corrupt-payload-crc", func(t *testing.T, path string, lastOff int) {
			// Full length on disk but a flipped byte: CRC must reject it.
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xff}, int64(lastOff+tornRecordHeader+1)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath, lastOff := writeTornWALFixture(t, dir)
			d.damage(t, walPath, lastOff)
			checkRecovered(t, dir)
		})
	}
}

func truncateTo(t *testing.T, path string, size int) {
	t.Helper()
	if err := os.Truncate(path, int64(size)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWALMergedView covers the image/WAL seam: a checkpoint in the
// middle of an append stream moves the prefix into the image and restarts
// the WAL, so after reopening, reads and iterators must serve the MERGED
// view — checkpointed data, overwrites and deletes that only ever reached
// the new WAL, and fresh inserts — with WAL entries shadowing the image.
func TestSnapshotWALMergedView(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Base data, checkpointed into the image.
	for i := 0; i < 8; i++ {
		if err := db.Put([]byte(fmt.Sprintf("base-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mid-append mutations that live only in the restarted WAL: an
	// overwrite, a delete and fresh inserts.
	if err := db.Put([]byte("base-3"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("base-5")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Put([]byte(fmt.Sprintf("new-%d", i)), []byte("n")); err != nil {
			t.Fatal(err)
		}
	}
	// Close without a checkpoint: the second wave exists ONLY in the WAL.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	want := map[string]string{
		"base-0": "v0", "base-1": "v1", "base-2": "v2", "base-3": "updated",
		"base-4": "v4", "base-6": "v6", "base-7": "v7",
		"new-0": "n", "new-1": "n", "new-2": "n",
	}
	got := map[string]string{}
	last := ""
	for it := db2.NewIteratorFrom(nil); it.Valid(); it.Next() {
		k := string(it.Key())
		if last != "" && k <= last {
			t.Fatalf("iterator out of order: %q after %q", k, last)
		}
		last = k
		got[k] = string(it.Value())
	}
	if len(got) != len(want) {
		t.Fatalf("merged view has %d keys (%v), want %d", len(got), got, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("merged view %s = %q, want %q", k, got[k], v)
		}
	}
	if _, err := db2.Get([]byte("base-5")); err != ErrNotFound {
		t.Errorf("deleted key visible after reopen: %v", err)
	}
}

// TestSnapshotWALTornTailMergedView layers the two recovery mechanisms: a
// checkpoint image plus a WAL whose final record is torn. The merged view
// must hold the image's data and the intact WAL prefix; the torn batch
// vanishes whole.
func TestSnapshotWALTornTailMergedView(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("flushed"), []byte("f")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("intact"), []byte("i")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	b.Put([]byte("torn-a"), []byte("x"))
	b.Put([]byte("flushed"), []byte("overwrite-lost")) // dies with the tear
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	truncateTo(t, walPath, int(fi.Size())-3)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	defer db2.Close()
	got := map[string]string{}
	for it := db2.NewIteratorFrom(nil); it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	want := map[string]string{"flushed": "f", "intact": "i"}
	if len(got) != len(want) || got["flushed"] != "f" || got["intact"] != "i" {
		t.Fatalf("merged view after tear = %v, want %v", got, want)
	}
}

// TestCheckpointReplaysNothing pins the snapshot API: after Checkpoint the
// store's live state is entirely in the image, the WAL is empty, and a
// reopen replays no log records. The store syncs, so the checkpoint takes
// its durable path (file and directory synced before the WAL reset).
func TestCheckpointReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("k03")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err == nil && fi.Size() != 0 {
		t.Errorf("WAL holds %d bytes after Checkpoint, want empty", fi.Size())
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Len(); n != 15 {
		t.Errorf("reopened store has %d keys, want 15", n)
	}
}
