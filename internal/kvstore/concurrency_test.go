package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The DB documents safety for concurrent use; exercise mixed readers and
// writers under the race detector's eye (the suite is run with GOMAXPROCS=1
// in CI but the locking must still be correct).
func TestConcurrentReadersWriters(t *testing.T) {
	db := openTemp(t, Options{memtableBytes: 4 << 10})
	const writers, readers, perG = 4, 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-k%03d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-k%03d", r%writers, i)
				if _, err := db.Get([]byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every write must be durable and correct afterwards.
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("w%d-k%03d", w, i)
			v, err := db.Get([]byte(k))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s = %q, %v", k, v, err)
			}
		}
	}
}

func TestSSTableCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the (only) SSTable.
	matches, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sstable found: %v", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupted sstable opened without error (checksum must catch it)")
	}
}

func TestLargeValues(t *testing.T) {
	db := openTemp(t, Options{memtableBytes: 1 << 16})
	big := bytes.Repeat([]byte("payload-"), 8192) // 64 KiB
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted: len=%d err=%v", len(v), err)
	}
}

func TestBatchReset(t *testing.T) {
	db := openTemp(t, Options{})
	b := NewBatch()
	b.Put([]byte("a"), []byte("1"))
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Put([]byte("b"), []byte("2"))
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatal("reset batch still wrote the dropped op")
	}
	if v, _ := db.Get([]byte("b")); string(v) != "2" {
		t.Fatal("batch after reset lost the new op")
	}
}

func TestEmptyWriteIsNoop(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Write(NewBatch()); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if db.Len() != 0 {
		t.Fatal("empty batch changed the store")
	}
}
