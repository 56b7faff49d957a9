package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// The DB documents safety for concurrent use; exercise mixed readers and
// writers under the race detector's eye (the suite is run with GOMAXPROCS=1
// in CI but the locking must still be correct).
func TestConcurrentReadersWriters(t *testing.T) {
	db := openTemp(t, Options{})
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

// TestIterateWhileWriting walks iterators while another goroutine writes
// and checkpoints. Under -race it pins that an iterator copies the live set
// only under the read lock; in any run, that each walk is a stable, ordered
// view holding at least the keys written before it began.
func TestIterateWhileWriting(t *testing.T) {
	db := openTemp(t, Options{})
	const n = 400
	var written atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
				done <- err
				return
			}
			written.Store(int64(i + 1))
			if i%100 == 99 {
				if err := db.Checkpoint(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for walks := 0; ; walks++ {
		floor := int(written.Load())
		it := db.NewIteratorFrom(nil)
		var prev []byte
		seen := 0
		for ; it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("walk %d: %q after %q", walks, it.Key(), prev)
			}
			prev = it.Key()
			seen++
		}
		if seen < floor {
			t.Fatalf("walk %d saw %d keys, %d were written before it began", walks, seen, floor)
		}
		if floor == n {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBaseCorruptionDetected: a flipped byte anywhere in the checkpoint
// image, or a truncation of it, fails Open; only the WAL may have a torn
// tail.
func TestBaseCorruptionDetected(t *testing.T) {
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
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, baseName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(dir, Options{}); !errors.Is(err, errCorruptBase) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("byte %d of base flipped: Open = %v, want a corrupt-base error", off, err)
		}
	}
	for _, cut := range []int{0, 5, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(dir, Options{}); err == nil {
			db.Close()
			t.Fatalf("base cut to %d of %d bytes opened without error", cut, len(raw))
		}
	}

	// Images whose every frame is intact but whose contents break a rule
	// the CRC cannot see.
	type entry struct {
		key  string
		seq  uint64
		kind entryKind
	}
	image := func(seq, count uint64, entries ...entry) []byte {
		buf := binary.LittleEndian.AppendUint64(append(openFrame(nil), baseMagic...), seq)
		buf = binary.LittleEndian.AppendUint64(buf, count)
		sealFrame(buf)
		for _, e := range entries {
			start := len(buf)
			buf = appendEntry(openFrame(buf), e.key, e.seq, e.kind, []byte("v"))
			sealFrame(buf[start:])
		}
		return buf
	}
	for _, bad := range []struct {
		name string
		data []byte
	}{
		{"keys out of order", image(9, 2, entry{"b", 1, kindValue}, entry{"a", 2, kindValue})},
		{"key twice", image(9, 2, entry{"a", 1, kindValue}, entry{"a", 2, kindValue})},
		{"tombstone", image(9, 1, entry{"a", 1, kindDelete})},
		{"entry newer than the image", image(9, 1, entry{"a", 10, kindValue})},
		{"count too high", image(9, 2, entry{"a", 1, kindValue})},
		{"count too low", image(9, 0, entry{"a", 1, kindValue})},
	} {
		if err := os.WriteFile(path, bad.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(dir, Options{}); !errors.Is(err, errCorruptBase) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("image with %s: Open = %v, want a corrupt-base error", bad.name, err)
		}
	}
	if err := os.WriteFile(path, image(9, 1, entry{"a", 9, kindValue}), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("a well-formed hand-built image: %v", err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "v" {
		t.Fatalf("hand-built image: Get(a) = %q, %v", v, err)
	}
}

func TestLargeValues(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("payload-"), 8192) // 64 KiB
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted: len=%d err=%v", len(v), err)
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
