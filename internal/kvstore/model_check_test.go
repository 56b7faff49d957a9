package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Model checking: the DB is driven through thousands of seeded-random
// interleaved operations next to a trivially-correct in-memory model, with
// exact-equivalence checks after every step. The store runs with tiny
// memtable and level budgets so a few thousand operations push data through
// flushes, L0->L1 compactions and deeper-level compactions — with the
// background compactor live, which is exactly the configuration `-race`
// needs to see.

func runModelCheck(t *testing.T, seed int64, opts Options) {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

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
		for it := db.NewIterator(); it.Valid(); it.Next() {
			if prev != nil && compareBytes(prev, it.Key()) >= 0 {
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
		case r < 65: // Flush
			if err := db.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			checkKey(step, randKey())
		case r < 68: // explicit Compact (races with the background worker)
			if err := db.Compact(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			checkKey(step, randKey())
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
	if err := db.CompactionError(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}

	// Restart equivalence: everything committed must survive a clean
	// close/reopen cycle through the WAL and manifest.
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := Open(db.dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	got := make(map[string]string)
	for it := db2.NewIterator(); it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(model) {
		t.Fatalf("after reopen: %d keys, model has %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("after reopen: %q = %q, model %q", k, got[k], v)
		}
	}
}

// TestModelCheckBackgroundCompaction drives the full interleaving against
// the model with the background compactor enabled and level budgets small
// enough that data reaches level 2 and beyond.
func TestModelCheckBackgroundCompaction(t *testing.T) {
	for _, seed := range []int64{1, 5, 7, 42, 20260808} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelCheck(t, seed, Options{
				memtableBytes:    4 << 10,
				l0Compact:        3,
				tableTargetBytes: 8 << 10,
				levelBaseBytes:   16 << 10,
			})
		})
	}
}

// TestModelCheckExplicitCompaction runs the same interleavings with
// background compaction off (every compaction is the synchronous full
// merge), covering the deterministic configuration shards use today.
func TestModelCheckExplicitCompaction(t *testing.T) {
	for _, seed := range []int64{3, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelCheck(t, seed, Options{
				memtableBytes:               4 << 10,
				l0Compact:                   3,
				disableBackgroundCompaction: true,
			})
		})
	}
}
