package kvstore

import (
	"fmt"
	"testing"
)

// Regression tests for merge-iterator edges the log tailers lean on: a
// cursor positioned past every source, an empty memtable over populated
// tables, and duplicate key versions straddling the seek point. Each shape
// once had to be reasoned about by hand during the replication work; now
// they are pinned.

// collect drains an iterator into key -> value.
func collect(it *Iterator) map[string]string {
	out := map[string]string{}
	for ; it.Valid(); it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	return out
}

// TestIteratorFromPastEverySource seeks beyond the last key of every layer
// combination: memtable only, tables only, and mixed. The iterator must be
// exhausted — and a later Seek back into range must recover every source,
// because positioning pops drained sources off the merge heap.
func TestIteratorFromPastEverySource(t *testing.T) {
	shapes := []struct {
		name  string
		build func(t *testing.T, db *DB)
	}{
		{"memtable only", func(t *testing.T, db *DB) {
			for i := 0; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "m")
			}
		}},
		{"single sstable, empty memtable", func(t *testing.T, db *DB) {
			for i := 0; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t")
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"two sstables and a memtable", func(t *testing.T, db *DB) {
			for i := 0; i < 4; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t1")
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 4; i < 8; i++ {
				mustPut(t, db, fmt.Sprintf("k%02d", i), "t2")
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			mustPut(t, db, "k08", "m")
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			db := openTemp(t, Options{})
			shape.build(t, db)

			it := db.NewIteratorFrom([]byte("zzz"))
			if it.Valid() {
				t.Fatalf("iterator past every source is valid, at %q", it.Key())
			}
			it.Next() // Next on an exhausted iterator stays exhausted
			if it.Valid() {
				t.Fatalf("Next on exhausted iterator revived it, at %q", it.Key())
			}
			// Seeking back into range must see every source again.
			it.Seek([]byte("k00"))
			got := collect(it)
			if len(got) < 8 {
				t.Fatalf("re-seek after exhaustion lost keys: %v", got)
			}
		})
	}
}

// TestIteratorEmptyMemtableOverTables pins iteration when the mutable layer
// is empty (the state right after Flush, and after reopening a checkpointed
// store): all keys live in SSTables, plus the variant where the memtable
// holds only tombstones for flushed keys.
func TestIteratorEmptyMemtableOverTables(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		mustPut(t, db, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collect(db.NewIterator())
	if len(got) != 10 || got["k00"] != "v0" || got["k09"] != "v9" {
		t.Fatalf("full scan over empty memtable: %v", got)
	}
	it := db.NewIteratorFrom([]byte("k05"))
	if !it.Valid() || string(it.Key()) != "k05" {
		t.Fatalf("NewIteratorFrom(k05) over empty memtable at %q", it.Key())
	}

	// Tombstone-only memtable: deletes over flushed keys must suppress them
	// and nothing else.
	for i := 0; i < 10; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got = collect(db.NewIteratorFrom([]byte("k00")))
	if len(got) != 5 {
		t.Fatalf("tombstone-only memtable scan: %v", got)
	}
	for k := range got {
		if k[2]%2 == 0 {
			t.Fatalf("deleted key %q resurfaced: %v", k, got)
		}
	}

	// Delete everything: the store still has two populated sources but zero
	// live keys.
	for i := 1; i < 10; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if it := db.NewIterator(); it.Valid() {
		t.Fatalf("fully-tombstoned store yields %q", it.Key())
	}
}

// TestIteratorSeekDuplicateVersions pins the seek behavior when the seek key
// itself has versions in several sources: exactly one entry comes out, with
// the newest value; a newest-version tombstone hides every older version;
// and shadowed versions just below the seek point don't leak in.
func TestIteratorSeekDuplicateVersions(t *testing.T) {
	db := openTemp(t, Options{})
	// "dup" gets a version in an old table, a newer table, and the memtable.
	mustPut(t, db, "below", "old")
	mustPut(t, db, "dup", "v1")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "dup", "v2")
	if err := db.Flush(); err != nil {
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
	// seeks afterwards.
	at := db.NewIterator()
	mustPut(t, db, "dup", "v5")
	at.Seek([]byte("dup"))
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
