package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// Model checking: the DB is driven through thousands of seeded-random
// interleaved operations next to a trivially-correct in-memory model, with
// exact-equivalence checks after every step. Checkpoints — the store's
// compaction, which folds the WAL into the checkpoint image — and reopens
// are steps too, so data moves between the WAL and the image all the way
// through, and a reader goroutine walks iterators the whole time, which
// `-race` needs to see. With background set, that goroutine also
// checkpoints after every pass, racing the foreground writes.

func runModelCheck(t *testing.T, seed int64, background bool) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// The reader walks whichever store is open; reopen swaps it under mu,
	// and a background checkpoint holds mu so it never meets a closed store.
	var (
		mu      sync.Mutex
		stop    = make(chan struct{})
		stopped = make(chan struct{})
	)
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			cur := db
			mu.Unlock()
			var prev []byte
			for it := cur.NewIteratorFrom(nil); it.Valid(); it.Next() {
				if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
					t.Errorf("reader: iterator order violation: %q then %q", prev, it.Key())
					return
				}
				prev = it.Key()
			}
			if background {
				mu.Lock()
				err := db.Checkpoint()
				mu.Unlock()
				if err != nil {
					t.Errorf("background checkpoint: %v", err)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
		db.Close()
	}()

	rng := rand.New(rand.NewSource(seed))
	model := make(map[string]string)

	// A small keyspace forces heavy overwriting and tombstone traffic.
	randKey := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(150))) }
	randVal := func() []byte {
		return []byte(fmt.Sprintf("val-%d-%d", rng.Int63(), rng.Intn(1000)))
	}

	checkKey := func(step int, key []byte) {
		t.Helper()
		got, err := db.Get(key)
		want, ok := model[string(key)]
		switch {
		case !ok && err != ErrNotFound:
			t.Fatalf("step %d: Get(%q) = %q, %v; model says absent", step, key, got, err)
		case ok && err != nil:
			t.Fatalf("step %d: Get(%q) error %v; model says %q", step, key, err, want)
		case ok && string(got) != want:
			t.Fatalf("step %d: Get(%q) = %q; model says %q", step, key, got, want)
		}
	}
	fullScan := func(step int) {
		t.Helper()
		got := make(map[string]string)
		var prev []byte
		for it := db.NewIteratorFrom(nil); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("step %d: iterator order violation: %q then %q", step, prev, it.Key())
			}
			prev = append([]byte(nil), it.Key()...)
			got[string(it.Key())] = string(it.Value())
		}
		if len(got) != len(model) {
			t.Fatalf("step %d: iterator yields %d keys, model has %d", step, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("step %d: iterator %q = %q, model %q", step, k, got[k], v)
			}
		}
	}

	const steps = 3000
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 30: // Put
			k, v := randKey(), randVal()
			if err := db.Put(k, v); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[string(k)] = string(v)
			checkKey(step, k)
		case r < 45: // Delete
			k := randKey()
			if err := db.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, string(k))
			checkKey(step, k)
		case r < 60: // atomic batch of mixed ops
			b := NewBatch()
			type op struct {
				key, val string
				del      bool
			}
			var ops []op
			for n := 1 + rng.Intn(8); n > 0; n-- {
				k := randKey()
				if rng.Intn(4) == 0 {
					b.Delete(k)
					ops = append(ops, op{key: string(k), del: true})
				} else {
					v := randVal()
					b.Put(k, v)
					ops = append(ops, op{key: string(k), val: string(v)})
				}
			}
			if err := db.Write(b); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			for _, o := range ops {
				if o.del {
					delete(model, o.key)
				} else {
					model[o.key] = o.val
				}
			}
			checkKey(step, []byte(ops[len(ops)-1].key))
		case r < 65: // Checkpoint
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
			checkKey(step, randKey())
		case r < 68: // reopen: everything committed survives a restart
			mu.Lock()
			next, err := reopen(db, dir)
			if err == nil {
				db = next
			}
			mu.Unlock()
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			fullScan(step)
		case r < 90: // point-read spot checks
			checkKey(step, randKey())
		case r < 95: // full iterator scan
			fullScan(step)
		default: // NewIteratorFrom: scan the model's tail from a random cursor
			start := randKey()
			var want []string
			for k := range model {
				if k >= string(start) {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			i := 0
			for it := db.NewIteratorFrom(start); it.Valid(); it.Next() {
				if i >= len(want) {
					t.Fatalf("step %d: IteratorFrom(%q) yields extra key %q", step, start, it.Key())
				}
				if string(it.Key()) != want[i] {
					t.Fatalf("step %d: IteratorFrom(%q) key %d = %q, want %q", step, start, i, it.Key(), want[i])
				}
				if string(it.Value()) != model[want[i]] {
					t.Fatalf("step %d: IteratorFrom(%q) value for %q = %q, want %q", step, start, it.Key(), it.Value(), model[want[i]])
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("step %d: IteratorFrom(%q) yields %d keys, want %d", step, start, i, len(want))
			}
		}
	}

	fullScan(steps)
}

// reopen closes db and opens its directory again.
func reopen(db *DB, dir string) (*DB, error) {
	if err := db.Close(); err != nil {
		return nil, err
	}
	return Open(dir, Options{})
}

// TestModelCheckBackgroundCompaction drives the full interleaving against
// the model while a second goroutine checkpoints the store concurrently.
func TestModelCheckBackgroundCompaction(t *testing.T) {
	for _, seed := range []int64{1, 5, 7, 42, 20260808} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelCheck(t, seed, true)
		})
	}
}

// TestModelCheckExplicitCompaction runs the same interleavings with
// checkpoints only where the step sequence asks for them, so every run is
// deterministic.
func TestModelCheckExplicitCompaction(t *testing.T) {
	for _, seed := range []int64{3, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelCheck(t, seed, false)
		})
	}
}
