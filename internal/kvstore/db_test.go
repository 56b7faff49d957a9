package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"grub/internal/sim"
)

func openTemp(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// Len returns the number of live keys (a full scan).
func (db *DB) Len() int {
	n := 0
	for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
		n++
	}
	return n
}

func TestPutGet(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := db.Get([]byte("k1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Get = %q, want v1", got)
	}
}

func TestGetMissing(t *testing.T) {
	db := openTemp(t, Options{})
	if _, err := db.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestOverwrite(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v9" {
		t.Fatalf("Get = %q, want v9", got)
	}
}

func TestDelete(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
	// Re-insert after deletion.
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after reinsert = %q, %v", got, err)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db := openTemp(t, Options{})
	b := NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a should be deleted by the batch's last op, got %v", err)
	}
	if v, err := db.Get([]byte("b")); err != nil || string(v) != "2" {
		t.Fatalf("b = %q, %v", v, err)
	}
}

// TestFlushAndRead reads every key back after a Checkpoint has written the
// live set to the checkpoint image.
func TestFlushAndRead(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if err := db.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		v, err := db.Get(key)
		if err != nil {
			t.Fatalf("Get %s after checkpoint: %v", key, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get %s = %q", key, v)
		}
	}
}

func TestFlushedOverwriteWins(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("Get = %q, %v; want new", v, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v, err = db.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("Get after second checkpoint = %q, %v; want new", v, err)
	}
}

func TestDeleteAcrossFlush(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound (a checkpoint must not resurrect a deleted key)", err)
	}
}

// TestCompaction: Checkpoint compacts the log, keeping the newest version of
// each key and dropping the overwritten ones.
func TestCompaction(t *testing.T) {
	db := openTemp(t, Options{})
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%100)) // heavy overwrites
		if err := db.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := db.Len(); got != 100 {
		t.Fatalf("Len after checkpoint = %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		want := fmt.Sprintf("val-%d", 400+i)
		v, err := db.Get(key)
		if err != nil || string(v) != want {
			t.Fatalf("Get %s = %q, %v; want %q", key, v, err, want)
		}
	}
}

// TestCompactionDropsTombstones: the checkpoint image holds no tombstones,
// and the deleted keys stay deleted across a reopen.
func TestCompactionDropsTombstones(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Len(); got != 25 {
		t.Fatalf("Len = %d, want 25", got)
	}
	if got := len(db.live); got != 25 {
		t.Fatalf("live set holds %d keys after the checkpoint, want 25", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Len(); got != 25 {
		t.Fatalf("Len after reopen = %d, want 25", got)
	}
}

func TestIteratorOrderAndCompleteness(t *testing.T) {
	db := openTemp(t, Options{})
	want := map[string]string{}
	r := sim.NewRand(5)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", r.Intn(150))
		v := fmt.Sprintf("val-%d", i)
		want[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a handful.
	for i := 0; i < 150; i += 10 {
		k := fmt.Sprintf("key-%04d", i)
		delete(want, k)
		if err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var gotKeys []string
	for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
		gotKeys = append(gotKeys, string(it.Key()))
		if want[string(it.Key())] != string(it.Value()) {
			t.Fatalf("iterator %s = %q, want %q", it.Key(), it.Value(), want[string(it.Key())])
		}
	}
	if len(gotKeys) != len(want) {
		t.Fatalf("iterator yielded %d keys, want %d", len(gotKeys), len(want))
	}
	if !sort.StringsAreSorted(gotKeys) {
		t.Fatal("iterator keys not sorted")
	}
}

func TestIteratorSeek(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIteratorFrom([]byte("k07"))
	if !it.Valid() || string(it.Key()) != "k07" {
		t.Fatalf("NewIteratorFrom(k07) at %q", it.Key())
	}
	it = db.NewIteratorFrom([]byte("k075"))
	if !it.Valid() || string(it.Key()) != "k08" {
		t.Fatalf("NewIteratorFrom(k075) at %q, want k08", it.Key())
	}
	it = db.NewIteratorFrom([]byte("k99"))
	if it.Valid() {
		t.Fatalf("NewIteratorFrom(k99) valid at %q, want exhausted", it.Key())
	}
}

// TestSnapshotIsolation: an iterator is a view of the store as of its
// creation — the op-log scans walk one while the shard keeps appending.
func TestSnapshotIsolation(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	it := db.NewIteratorFrom(nil)
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		n++
		if string(it.Key()) == "k" && string(it.Value()) != "v1" {
			t.Fatalf("iterator k = %q, want v1", it.Value())
		}
	}
	if n != 1 {
		t.Fatalf("iterator saw %d keys, want 1", n)
	}
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("Get after the walk = %q, %v; want v2", v, err)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Close writes no checkpoint: durability comes from the WAL.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after recovery k%02d = %q, %v", i, v, err)
		}
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("good"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage simulating a torn write.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn wal: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("good")); err != nil || string(v) != "v" {
		t.Fatalf("good = %q, %v", v, err)
	}
}

// TestReopenAfterFlushAndCompact reopens a store whose state is split
// between the checkpoint image and the WAL written after it.
func TestReopenAfterFlushAndCompact(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More writes after the checkpoint, left in the WAL.
	for i := 200; i < 250; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Len(); got != 250 {
		t.Fatalf("Len after reopen = %d, want 250", got)
	}
	if v, err := db2.Get([]byte("k0225")); err != nil || string(v) != "tail" {
		t.Fatalf("k0225 = %q, %v", v, err)
	}
	if v, err := db2.Get([]byte("k0100")); err != nil || !bytes.Equal(v, bytes.Repeat([]byte{100}, 16)) {
		t.Fatalf("k0100 = %q, %v", v, err)
	}
}

func TestClosedOperations(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed = %v, want ErrClosed", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestEmptyAndBinaryKeys(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte{}, []byte("empty")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte{0x00, 0xff, 0x00}, []byte("binary")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte{}); err != nil || string(v) != "empty" {
		t.Fatalf("empty key = %q, %v", v, err)
	}
	if v, err := db.Get([]byte{0x00, 0xff, 0x00}); err != nil || string(v) != "binary" {
		t.Fatalf("binary key = %q, %v", v, err)
	}
	if v, err := db.Get([]byte("k")); err != nil || len(v) != 0 {
		t.Fatalf("nil value = %q, %v", v, err)
	}
}

// Model-based property test: the DB must agree with a plain map under a
// random operation sequence interleaved with checkpoints and reopens.
func TestModelEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer func() { db.Close() }()
		model := map[string]string{}
		r := sim.NewRand(seed)
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key-%03d", r.Intn(60))
			switch r.Intn(10) {
			case 0:
				delete(model, k)
				if err := db.Delete([]byte(k)); err != nil {
					return false
				}
			case 1:
				if err := db.Checkpoint(); err != nil {
					return false
				}
			case 2:
				if i%7 == 0 {
					if db.Close() != nil {
						return false
					}
					if db, err = Open(dir, Options{}); err != nil {
						return false
					}
				}
			default:
				v := fmt.Sprintf("v-%d", r.Uint64())
				model[k] = v
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		// Point queries.
		for i := 0; i < 60; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, err := db.Get([]byte(k))
			wantV, wantOK := model[k]
			if wantOK {
				if err != nil || string(v) != wantV {
					return false
				}
			} else if !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		// Full scan.
		n := 0
		for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
			if model[string(it.Key())] != string(it.Value()) {
				return false
			}
			n++
		}
		return n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10000; i++ {
		_ = db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	_ = db.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.Get([]byte(fmt.Sprintf("key-%09d", i%10000)))
	}
}

// TestPutAllocations pins what appending one shard log record costs: a
// log/<seq> key with a batch-sized value. Put allocates its batch's op
// slice and its copies of the key and the value, which the live set keeps;
// the batch stays on the stack and the WAL frame buffer is reused. (The
// skiplist build of this package made 4: a node per write.)
func TestPutAllocations(t *testing.T) {
	db := openTemp(t, Options{})
	const runs = 1000
	val := bytes.Repeat([]byte("r"), 1536)
	keys := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "log/%016x", i+1)
	}
	seq := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := db.Put(keys[seq], val); err != nil {
			t.Fatal(err)
		}
		seq++
	})
	t.Logf("%v allocations per log append", got)
	if got > 3 {
		t.Errorf("a log append made %v allocations, want at most 3", got)
	}
}
