package kvstore

import (
	"fmt"
	"testing"
)

// Regression tests for iterator edges the log tailers lean on: a cursor
// positioned past every key, a store reopened from its checkpoint image,
// and duplicate key versions straddling the seek point. Each shape once had
// to be reasoned about by hand during the replication work; now they are
// pinned.

// collect drains an iterator into key -> value.
func collect(it *Iterator) map[string]string {
	out := map[string]string{}
	for ; it.Valid(); it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	return out
}

// TestIteratorFromPastEverySource seeks beyond the last key of every
// shape a store takes: WAL only, loaded from an image, and an image with a
// WAL over it. The iterator must be exhausted, and a later iterator from
// back in range must find every key again.
func TestIteratorFromPastEverySource(t *testing.T) {
	shapes := []struct {
		name  string
		build func(t *testing.T, db *DB)
	}{
		{"wal only", func(t *testing.T, db *DB) {
			for i := 0; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "m")
			}
		}},
		{"base only", func(t *testing.T, db *DB) {
			for i := 0; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t")
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"base and wal", func(t *testing.T, db *DB) {
			for i := 0; i < 4; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t1")
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 4; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t2")
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustPut(t, db, "k08", "m")
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			shape.build(t, db)
			db.Close()
			if db, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			it := db.NewIteratorFrom([]byte("zzz"))
			if it.Valid() {
				t.Fatalf("iterator past every key is valid, at %q", it.Key())
			}
			it.Next() // Next on an exhausted iterator stays exhausted
			if it.Valid() {
				t.Fatalf("Next on exhausted iterator revived it, at %q", it.Key())
			}
			// An iterator from back in range must see every key again.
			got := collect(db.NewIteratorFrom([]byte("k00")))
			if len(got) < 8 {
				t.Fatalf("iterator from k00 after exhaustion lost keys: %v", got)
			}
		})
	}
}

// TestIteratorOverReopenedBase pins iteration over a store reopened from
// its checkpoint image with an empty WAL, then with a WAL holding only
// tombstones for the image's keys, then with every key deleted.
func TestIteratorOverReopenedBase(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, db, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	got := collect(db.NewIteratorFrom(nil))
	if len(got) != 10 || got["k00"] != "v0" || got["k09"] != "v9" {
		t.Fatalf("full scan of the reopened image: %v", got)
	}
	it := db.NewIteratorFrom([]byte("k05"))
	if !it.Valid() || string(it.Key()) != "k05" {
		t.Fatalf("NewIteratorFrom(k05) over the reopened image at %q", it.Key())
	}

	// Deletes over the image's keys must suppress them and nothing else.
	for i := 0; i < 10; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got = collect(db.NewIteratorFrom([]byte("k00")))
	if len(got) != 5 {
		t.Fatalf("scan under tombstones: %v", got)
	}
	for k := range got {
		if k[2]%2 == 0 {
			t.Fatalf("deleted key %q resurfaced: %v", k, got)
		}
	}

	// Delete everything: the store holds versions but zero live keys.
	for i := 1; i < 10; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if it := db.NewIteratorFrom(nil); it.Valid() {
		t.Fatalf("fully-tombstoned store yields %q", it.Key())
	}
}

// TestIteratorSeekDuplicateVersions pins the seek behavior when the seek key
// itself has several versions, across checkpoints: exactly one entry comes out, with
// the newest value; a newest-version tombstone hides every older version;
// and shadowed versions just below the seek point don't leak in.
func TestIteratorSeekDuplicateVersions(t *testing.T) {
	db := openTemp(t, Options{})
	// "dup" gets a version before each of two checkpoints and one after.
	mustPut(t, db, "below", "old")
	mustPut(t, db, "dup", "v1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "dup", "v2")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "below", "new") // shadowed pair strictly below the seek point
	mustPut(t, db, "dup", "v3")
	mustPut(t, db, "tail", "t")

	it := db.NewIteratorFrom([]byte("dup"))
	if !it.Valid() || string(it.Key()) != "dup" || string(it.Value()) != "v3" {
		t.Fatalf("Seek(dup) = %q=%q, want dup=v3", it.Key(), it.Value())
	}
	it.Next()
	if !it.Valid() || string(it.Key()) != "tail" {
		t.Fatalf("stale duplicate version after dup: at %q (valid=%v)", it.Key(), it.Valid())
	}
	it.Next()
	if it.Valid() {
		t.Fatalf("trailing entry after tail: %q", it.Key())
	}

	// Newest version of the seek key is a tombstone: every older live
	// version must stay hidden.
	if err := db.Delete([]byte("dup")); err != nil {
		t.Fatal(err)
	}
	it = db.NewIteratorFrom([]byte("dup"))
	if !it.Valid() || string(it.Key()) != "tail" {
		t.Fatalf("Seek to tombstoned dup landed at %q, want tail", it.Key())
	}

	// Re-put after the delete: the newest value wins again.
	mustPut(t, db, "dup", "v4")
	it = db.NewIteratorFrom([]byte("dup"))
	if !it.Valid() || string(it.Key()) != "dup" || string(it.Value()) != "v4" {
		t.Fatalf("Seek(dup) after re-put = %q=%q, want dup=v4", it.Key(), it.Value())
	}

	// An iterator opened before a further overwrite keeps its view when it
	// is walked afterwards.
	at := db.NewIteratorFrom([]byte("dup"))
	mustPut(t, db, "dup", "v5")
	if !at.Valid() || string(at.Key()) != "dup" || string(at.Value()) != "v4" {
		t.Fatalf("earlier iterator sees %q=%q, want dup=v4", at.Key(), at.Value())
	}
}

func mustPut(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if err := db.Put([]byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
}
