package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash-point tests for Checkpoint. A checkpoint takes three steps on disk:
// write base.tmp, rename it over base, reset wal.log. Each test builds the
// disk state a process killed between two of those steps leaves behind,
// from the files of a store before and after a real Checkpoint, and opens
// it. Logically a checkpoint changes nothing, so at every cut the recovered
// contents must be byte for byte what the store held, with no committed
// write lost and no deleted key resurrected.

// copyStoreDir snapshots every regular file in src into a fresh temp dir.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		}
	}
	return dst
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// dumpDB renders db's live contents as one byte string, key=value lines in
// key order.
func dumpDB(db *DB) []byte {
	var b bytes.Buffer
	for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
		fmt.Fprintf(&b, "%q=%q\n", it.Key(), it.Value())
	}
	return b.Bytes()
}

// dumpDir opens dir, dumps it and closes it again.
func dumpDir(t *testing.T, dir string) []byte {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer db.Close()
	return dumpDB(db)
}

// buildCrashFixture fills dir with a store that has real checkpoint work
// pending: an earlier image, then overwrites, fresh keys and tombstones in
// the WAL. It returns the contents.
func buildCrashFixture(t *testing.T, dir string) []byte {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := round * 10; i < 40+round*10; i++ {
			mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d-%d", round, i))
		}
		if round == 1 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 70; i += 3 {
		if err := db.Delete([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpDB(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCheckpointCrashPoints cuts a checkpoint after each of its steps and
// proves recovery restores the exact contents from whichever mix of old and
// new files survived, then that the recovered store keeps working: a write,
// a reopen, a further checkpoint and another reopen.
func TestCheckpointCrashPoints(t *testing.T) {
	before := t.TempDir()
	want := buildCrashFixture(t, before)
	after := copyStoreDir(t, before)
	db, err := Open(after, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpDir(t, after); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint changed the contents:\n%s\nwant\n%s", got, want)
	}

	for _, cut := range []struct {
		name  string
		build func(dir string) // dir starts as a copy of before
	}{
		{"written", func(dir string) {
			copyFile(t, filepath.Join(after, baseName), filepath.Join(dir, baseTmpName))
		}},
		{"renamed", func(dir string) {
			copyFile(t, filepath.Join(after, baseName), filepath.Join(dir, baseName))
		}},
		{"reset", func(dir string) {
			copyFile(t, filepath.Join(after, baseName), filepath.Join(dir, baseName))
			truncateTo(t, filepath.Join(dir, walName), 0)
		}},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := copyStoreDir(t, before)
			cut.build(dir)
			if got := dumpDir(t, dir); !bytes.Equal(got, want) {
				t.Fatalf("recovered\n%s\nwant\n%s", got, want)
			}
			if _, err := os.Stat(filepath.Join(dir, baseTmpName)); !os.IsNotExist(err) {
				t.Fatalf("base.tmp survives recovery: %v", err)
			}
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, db, "key-000", "after the crash")
			more := dumpDB(db)
			db.Close()
			if got := dumpDir(t, dir); !bytes.Equal(got, more) {
				t.Fatalf("write after recovery: reopened\n%s\nwant\n%s", got, more)
			}
			if db, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			db.Close()
			if got := dumpDir(t, dir); !bytes.Equal(got, more) {
				t.Fatalf("checkpoint after recovery: reopened\n%s\nwant\n%s", got, more)
			}
		})
	}
}

// TestCrashBetweenFlushStages: after a crash between installing the image
// and resetting the WAL, the WAL replays over an image that already holds
// it. Its entries are skipped by sequence number, including a delete whose
// tombstone the image no longer carries, and writes appended after the
// recovery replay behind them.
func TestCrashBetweenFlushStages(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d", i))
	}
	if err := db.Delete([]byte("key-010")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	want := dumpDB(db)
	walCopy, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), walCopy, 0o644); err != nil {
		t.Fatalf("restore wal: %v", err)
	}
	if got := dumpDir(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "key-010", "back")
	want = dumpDB(db)
	db.Close()
	if got := dumpDir(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("after a write behind the replayed WAL:\n%s\nwant\n%s", got, want)
	}
}

// TestStrayTempFilesRemovedAtOpen: an image written but never renamed (a
// crash before the install), garbage or not, is deleted at open, and the
// data still recovers from the old image and the WAL.
func TestStrayTempFilesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustPut(t, db, "alpha", "1")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, baseTmpName), []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over debris: %v", err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("alpha")); err != nil || string(v) != "1" {
		t.Fatalf("Get(alpha) = %q, %v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, baseTmpName)); !os.IsNotExist(err) {
		t.Fatalf("stray %s not removed at open", baseTmpName)
	}
}

// TestCheckpointErrorReported makes one Checkpoint fail (a directory squats
// on base.tmp): the error reaches the caller, nothing committed is lost,
// the store keeps taking writes, and once the obstacle is gone the next
// Checkpoint succeeds.
func TestCheckpointErrorReported(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustPut(t, db, "k", "v")
	if err := os.Mkdir(filepath.Join(dir, baseTmpName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint over a directory at base.tmp succeeded")
	}
	mustPut(t, db, "after", "failure")
	want := dumpDB(db)
	if got := dumpDir(t, copyStoreDir(t, dir)); !bytes.Equal(got, want) {
		t.Fatalf("recovered after a failed checkpoint\n%s\nwant\n%s", got, want)
	}
	if err := os.Remove(filepath.Join(dir, baseTmpName)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the obstacle is gone: %v", err)
	}
	if got := dumpDir(t, copyStoreDir(t, dir)); !bytes.Equal(got, want) {
		t.Fatalf("recovered after the checkpoint\n%s\nwant\n%s", got, want)
	}
}

// TestLegacyStoreRefused: a directory the LSM build wrote tables into fails
// Open with ErrLegacyStore, whichever of its files is present, and Open
// changes nothing in it.
func TestLegacyStoreRefused(t *testing.T) {
	for _, name := range []string{"CURRENT", "000001.sst"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, db, "k", "v")
			db.Close()
			for _, f := range []string{name, "000002.sst.tmp"} {
				if err := os.WriteFile(filepath.Join(dir, f), []byte("legacy"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if db, err := Open(dir, Options{}); !errors.Is(err, ErrLegacyStore) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("Open of a legacy directory = %v, want ErrLegacyStore", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "000002.sst.tmp")); err != nil {
				t.Fatalf("Open of a legacy directory removed a file: %v", err)
			}
		})
	}
}
