package kvstore

import (
	"fmt"
	"testing"
)

// TestNewIteratorFrom pins the cursor-positioned iterator the durable-log
// tailers use: it must start at the first live key >= start, across
// checkpointed keys, later overwrites and tombstones.
func TestNewIteratorFrom(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("log/%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put([]byte("snap"), []byte("s")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint the history, then overwrite and delete above it.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("log/0007")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("log/0010"), []byte("v10b")); err != nil {
		t.Fatal(err)
	}

	var keys []string
	for it := db.NewIteratorFrom([]byte("log/0006")); it.Valid(); it.Next() {
		keys = append(keys, string(it.Key()))
		if string(it.Key()) == "log/0010" && string(it.Value()) != "v10b" {
			t.Errorf("log/0010 = %q, want shadowing value", it.Value())
		}
	}
	want := []string{"log/0006", "log/0008", "log/0009", "log/0010", "log/0011"}
	if len(keys) < len(want) {
		t.Fatalf("iterator from log/0006 yielded %v", keys)
	}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("key[%d] = %q, want %q (all: %v)", i, keys[i], k, keys)
		}
	}
	if last := keys[len(keys)-1]; last != "snap" {
		t.Errorf("iterator should end at %q, got %q", "snap", last)
	}

	// A start past every key yields an exhausted iterator.
	if it := db.NewIteratorFrom([]byte("zzz")); it.Valid() {
		t.Errorf("iterator from zzz should be exhausted, at %q", it.Key())
	}
}

// TestSeekAfterSourceExhaustion pins a bug the replication catch-up path
// exposed in an earlier merging iterator: after a checkpoint and a WAL
// replay of exactly one live key, Seek to that key silently lost it. An
// iterator from a key must find every key the store holds.
func TestSeekAfterSourceExhaustion(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shape the store like a persister after snapshot + one logged batch:
	// superseded log records pruned, the checkpoint writes the image, then
	// a single fresh log record lands in the WAL.
	for i := 1; i <= 12; i++ {
		db.Put([]byte(fmt.Sprintf("log/%016x", i)), []byte("old"))
	}
	db.Put([]byte("snap"), []byte("s1"))
	b := NewBatch()
	for i := 1; i <= 12; i++ {
		b.Delete([]byte(fmt.Sprintf("log/%016x", i)))
	}
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fresh := fmt.Sprintf("log/%016x", 13)
	db.Put([]byte(fresh), []byte("v13"))
	db.Close()

	// Reopen: the image loads and the fresh record replays over it.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	it := db2.NewIteratorFrom([]byte(fresh))
	if !it.Valid() || string(it.Key()) != fresh || string(it.Value()) != "v13" {
		t.Fatalf("seek to %q lost the WAL's only key (at %q)", fresh, it.Key())
	}
	it.Next()
	if !it.Valid() || string(it.Key()) != "snap" {
		t.Fatalf("expected snap after %q, got %q (valid=%v)", fresh, it.Key(), it.Valid())
	}
}
