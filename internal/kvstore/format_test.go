package kvstore

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/parent-store from fixtureHistory")

// parentStore is a store directory (base and wal.log) written by the build
// of this package that kept every version in a skiplist memtable, from
// fixtureHistory. The tests below pin that later builds read it, checkpoint
// it, and write the same bytes for the same history.
const parentStore = "testdata/parent-store"

type fixtureOp struct {
	key, val string
	del      bool
}

func fput(k, v string) fixtureOp { return fixtureOp{key: k, val: v} }
func fdel(k string) fixtureOp    { return fixtureOp{key: k, del: true} }

// fixtureHistory is the store's history: each element one Write, nil a
// Checkpoint. The image holds overwritten, deleted, empty and binary keys,
// and the log above it overwrites, deletes and revives keys of the image.
var fixtureHistory = [][]fixtureOp{
	{fput("k00", "a0"), fput("k01", "a1"), fput("k02", "a2"), fput("k03", "a3"), fput("k04", "a4")},
	{fput("k03", "b3")},
	{fdel("k04")},
	{fput("log/0000000000000001", strings.Repeat("record-", 220))},
	{fput("", "empty key"), fput("\x00\xff", "")},
	{fdel("absent")},
	nil,
	{fput("k01", "c1"), fdel("k02")},
	{fput("k04", "c4")},
	{fput("k03", "d3"), fput("k03", "e3")},
	{fdel("\x00\xff")},
	{fput("k05", "c5")},
}

// writeHistory plays fixtureHistory into a fresh store at dir.
func writeHistory(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range fixtureHistory {
		if ops == nil {
			err = db.Checkpoint()
		} else {
			b := NewBatch()
			for _, op := range ops {
				if op.del {
					b.Delete([]byte(op.key))
				} else {
					b.Put([]byte(op.key), []byte(op.val))
				}
			}
			err = db.Write(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// fixtureModel is the live set fixtureHistory leaves.
func fixtureModel() map[string]string {
	m := map[string]string{}
	for _, ops := range fixtureHistory {
		for _, op := range ops {
			if op.del {
				delete(m, op.key)
			} else {
				m[op.key] = op.val
			}
		}
	}
	return m
}

// openParentStore opens a copy of the fixture, so Open's repairs never
// touch the checked-in files.
func openParentStore(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(parentStore)); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open the parent-written store: %v", err)
	}
	return db, dir
}

// checkModel compares db's live set, by a full scan and by Get, with the
// model, and checks that every key the history deleted stays deleted.
func checkModel(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	got := collect(db.NewIteratorFrom(nil))
	if len(got) != len(want) {
		t.Fatalf("scan holds %d keys, want %d: %q", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan %q = %q, want %q", k, got[k], v)
		}
		if g, err := db.Get([]byte(k)); err != nil || string(g) != v {
			t.Fatalf("Get %q = %q, %v; want %q", k, g, err, v)
		}
	}
	for _, k := range []string{"k02", "\x00\xff", "absent"} {
		if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %q: Get = %v, want ErrNotFound", k, err)
		}
	}
}

// TestParentStoreOpens reads the parent-written store: the image and the
// log replayed above it.
func TestParentStoreOpens(t *testing.T) {
	db, _ := openParentStore(t)
	defer db.Close()
	checkModel(t, db, fixtureModel())
}

// TestParentStoreCheckpoint checkpoints the parent-written store and reopens
// the image this build wrote, with nothing left to replay.
func TestParentStoreCheckpoint(t *testing.T) {
	db, dir := openParentStore(t)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after the checkpoint: %v, %v", fi, err)
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkModel(t, db, fixtureModel())
}

// TestStoreWritesParentBytes plays the fixture's history into a fresh store
// and compares both files with the parent's byte for byte. With -update it
// rewrites the fixture instead.
func TestStoreWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	if *update {
		dir = parentStore
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	writeHistory(t, dir)
	for _, name := range []string{baseName, walName} {
		want, err := os.ReadFile(filepath.Join(parentStore, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this build wrote %d bytes unlike the parent's %d", name, len(got), len(want))
		}
	}
}
