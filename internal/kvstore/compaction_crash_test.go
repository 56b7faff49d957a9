package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Crash-point tests for compaction. A "crash" is simulated by copying the
// store directory at a compaction stage hook — the copy is exactly the disk
// state a process killed at that instant would leave behind — and reopening
// the copy. Every cut must preserve two invariants:
//
//   - no committed write is lost (everything the pre-crash store contained
//     is readable after recovery), and
//   - no deleted key is resurrected (a tombstone folded into the output must
//     not reappear because recovery picked the wrong mix of old/new tables).

// copyStoreDir snapshots every file in src into a fresh temp dir.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("copy %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("copy %s: %v", e.Name(), err)
		}
	}
	return dst
}

// expectExactState opens dir and verifies its live contents equal want.
func expectExactState(t *testing.T, dir string, want map[string]string, deleted []string) {
	t.Helper()
	db, err := Open(dir, Options{disableBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer db.Close()
	got := make(map[string]string)
	for it := db.NewIterator(); it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered %q = %q, want %q (committed write lost)", k, got[k], v)
		}
	}
	for _, k := range deleted {
		if _, err := db.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("deleted key %q resurrected after crash recovery", k)
		}
	}
}

// buildCrashFixture populates a store that has real compaction work pending:
// several overlapping L0 tables, overwrites, and tombstones. Returns the
// expected live state and the deleted keys.
func buildCrashFixture(t *testing.T, db *DB) (map[string]string, []string) {
	t.Helper()
	want := make(map[string]string)
	for round := 0; round < 4; round++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("val-%d-%d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("put: %v", err)
			}
			want[k] = v
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	var deleted []string
	for i := 0; i < 40; i += 3 {
		k := fmt.Sprintf("key-%03d", i)
		if err := db.Delete([]byte(k)); err != nil {
			t.Fatalf("delete: %v", err)
		}
		delete(want, k)
		deleted = append(deleted, k)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return want, deleted
}

// TestCompactionCrashPoints kills the process (by snapshotting the disk) at
// every compaction stage and proves recovery restores the exact pre-crash
// contents from whichever mix of old and new files survived.
func TestCompactionCrashPoints(t *testing.T) {
	for _, stage := range []string{"picked", "built", "swapped"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			var crashDir string
			opts := Options{
				disableBackgroundCompaction: true,
				// High threshold: no flush-triggered compaction, so the hook
				// fires only from the explicit Compact below, after the whole
				// fixture (including the tombstones) is durable.
				l0Compact: 100,
				compactionHook: func(s string) {
					if s == stage && crashDir == "" {
						crashDir = copyStoreDir(t, dir)
					}
				},
			}
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer db.Close()
			want, deleted := buildCrashFixture(t, db)
			if err := db.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if crashDir == "" {
				t.Fatalf("stage %q never reached", stage)
			}
			// The survivor sees exactly the pre-crash state.
			expectExactState(t, crashDir, want, deleted)
			// And the uncrashed store does too.
			expectExactState(t, dir, want, deleted)
		})
	}
}

// TestBackgroundCompactionCrashPoints does the same through the background
// worker: writes trigger the L0 threshold, the worker compacts, and the disk
// snapshot is taken inside the worker goroutine at each stage.
func TestBackgroundCompactionCrashPoints(t *testing.T) {
	for _, stage := range []string{"built", "swapped"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			var (
				mu       sync.Mutex
				crashDir string
				hit      = make(chan struct{}, 1)
				armCh    = make(chan struct{})
			)
			opts := Options{
				memtableBytes: 2 << 10,
				l0Compact:     3,
				compactionHook: func(s string) {
					if s == "picked" {
						// Park the worker until the fixture is fully durable;
						// writes keep flowing meanwhile (the worker holds no
						// DB lock here), which is the whole point of
						// background compaction.
						<-armCh
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if s == stage && crashDir == "" {
						crashDir = copyStoreDir(t, dir)
						select {
						case hit <- struct{}{}:
						default:
						}
					}
				},
			}
			release := sync.OnceFunc(func() { close(armCh) })
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer db.Close()
			defer release() // unpark the worker even on failure, or Close hangs
			// Committed state the crash must preserve. The small memtable
			// pushes L0 over the threshold repeatedly, so the worker is
			// already parked at "picked" while these writes proceed.
			want := make(map[string]string)
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%03d", i)
				v := strings.Repeat(fmt.Sprintf("v%d.", i), 8)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatalf("put: %v", err)
				}
				want[k] = v
			}
			var deleted []string
			for i := 0; i < 200; i += 7 {
				k := fmt.Sprintf("key-%03d", i)
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatalf("delete: %v", err)
				}
				delete(want, k)
				deleted = append(deleted, k)
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			// Everything is durable and no more writes will come: release
			// the worker and wait for it to reach the crash stage.
			release()
			select {
			case <-hit:
			case <-time.After(10 * time.Second):
				t.Fatalf("background compaction never reached stage %q", stage)
			}
			mu.Lock()
			cd := crashDir
			mu.Unlock()
			expectExactState(t, cd, want, deleted)
			if err := db.CompactionError(); err != nil {
				t.Fatalf("background compaction failed: %v", err)
			}
		})
	}
}

// TestBackgroundCompactionErrorReported makes one background compaction fail
// (a directory squats on its output's temp path) and checks the contract of
// CompactionError: the failure is recorded, nothing committed is lost, the
// store keeps taking writes, and the worker picks up the next job.
func TestBackgroundCompactionErrorReported(t *testing.T) {
	dir := t.TempDir()
	arm := make(chan *DB)        // test -> worker: fixture durable, go fail
	again := make(chan struct{}) // worker -> test: picked a job after the failed one
	picks := 0                   // worker goroutine only
	opts := Options{
		memtableBytes: 2 << 10,
		l0Compact:     3,
		compactionHook: func(s string) {
			if s != "picked" {
				return
			}
			picks++
			switch picks {
			case 1:
				// Parked until the test stops writing, so the job's first
				// output is certain to take the next file number.
				if db := <-arm; db != nil {
					if err := os.Mkdir(sstFileName(dir, db.nextNum.Load())+".tmp", 0o755); err != nil {
						t.Errorf("plant obstacle: %v", err)
					}
				}
			case 2:
				close(again)
			}
		},
	}
	release := sync.OnceFunc(func() { close(arm) })
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	defer release() // unpark the worker even on failure, or Close hangs
	want, deleted := buildCrashFixture(t, db)
	arm <- db

	// No write may run until the job has failed, or a flush could take the
	// obstructed file number first. Nothing signals a failed compaction but
	// CompactionError itself, so poll it.
	for deadline := time.Now().Add(10 * time.Second); db.CompactionError() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never failed")
		}
	}
	if err := db.CompactionError(); !strings.Contains(err.Error(), "write sstable") {
		t.Fatalf("CompactionError = %v, want the failed table write", err)
	}

	// The failed job left L0 over its threshold; the store still takes
	// writes, and one more flush wakes the worker for the next job.
	mustPut(t, db, "after", "failure")
	want["after"] = "failure"
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after a failed compaction: %v", err)
	}
	select {
	case <-again:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked a job after the failed one")
	}
	if db.CompactionError() == nil {
		t.Fatal("a later job cleared the recorded failure")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	expectExactState(t, dir, want, deleted)
}

// TestCrashBetweenFlushStages covers the flush ordering fix: after a crash
// where the SSTable and manifest landed but the WAL did not rotate, recovery
// replays WAL entries that already live in the table. The duplicates must
// collapse silently.
func TestCrashBetweenFlushStages(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{disableBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := make(map[string]string)
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put: %v", err)
		}
		want[k] = v
	}
	if err := db.Delete([]byte("key-010")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	delete(want, "key-010")
	// Copy the WAL aside, flush (which writes the table + manifest and
	// rotates the WAL), then restore the old WAL over the rotated one: the
	// disk now looks exactly like a crash after the manifest install and
	// before the rotation.
	walCopy, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), walCopy, 0o644); err != nil {
		t.Fatalf("restore wal: %v", err)
	}
	expectExactState(t, dir, want, []string{"key-010"})
}

// TestOrphanTablesRemovedAtOpen verifies the other half of the flush fix: a
// table written but never referenced by a manifest (crash before the install)
// is deleted at open, and the data still recovers from the WAL.
func TestOrphanTablesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{disableBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Plant debris: an orphan table with garbage contents and a stray tmp.
	if err := os.WriteFile(filepath.Join(dir, "999999.sst"), []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000042.sst.tmp"), []byte("tmp"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{disableBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("reopen with orphans: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("alpha")); err != nil || string(v) != "1" {
		t.Fatalf("Get(alpha) = %q, %v", v, err)
	}
	for _, name := range []string{"999999.sst", "000042.sst.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s not removed at open", name)
		}
	}
}
