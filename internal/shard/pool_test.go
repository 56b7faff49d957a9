package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/repl"
)

// keysOn returns n keys, each of them on one of the given shards of a
// feed with shards shards, tagged with tag so no other caller's batch
// holds them.
func keysOn(tag string, n, shards int, on ...int) []string {
	want := make(map[int]bool)
	for _, sh := range on {
		want[sh] = true
	}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("%s-%d", tag, i); want[ShardOf(k, shards)] {
			keys = append(keys, k)
		}
	}
	return keys
}

// batchOf writes, then reads, every key.
func batchOf(keys []string) []core.Op {
	ops := make([]core.Op, 0, 2*len(keys))
	for _, k := range keys {
		ops = append(ops, core.Op{Type: "write", Key: k, Value: []byte(k)})
	}
	for _, k := range keys {
		ops = append(ops, core.Op{Type: "read", Key: k})
	}
	return ops
}

// ownResults reports why results are not the answer to ops, in caller
// order, or "" when they are.
func ownResults(ops []core.Op, results []core.OpResult) string {
	if len(results) != len(ops) {
		return fmt.Sprintf("%d results for %d ops", len(results), len(ops))
	}
	for i, r := range results {
		if r.Key != ops[i].Key || r.Err != "" {
			return fmt.Sprintf("result %d is %+v, for op on %q", i, r, ops[i].Key)
		}
	}
	return ""
}

// TestPooledReplyHaltedShard: on a 4-shard feed with shard 0 halted on a
// refused fork, batches that touch shard 0 return its divergence error,
// whose early return drops their reply channel with answers still owed on
// it. Batches interleaved with them that avoid shard 0 reuse the pool's
// channels and must still get their own results, in caller order.
func TestPooledReplyHaltedShard(t *testing.T) {
	const shards, workers, rounds = 4, 4, 200
	sf := newReplicating(t, shards, 8)
	forged := repl.Entry{Anchor: query.Anchor{Seq: 1}, Ops: []core.Op{{Type: "write", Key: "forged", Value: []byte("v")}}}
	if err := sf.Apply(0, forged); !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("forged entry: err = %v, want ErrDivergence", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				tag := fmt.Sprintf("g%d-r%d", g, r)
				if _, err := sf.Do(batchOf(keysOn(tag+"-halted", 6, shards, 0, 1, 2))); !errors.Is(err, repl.ErrDivergence) {
					errs <- fmt.Errorf("%s: batch touching the halted shard: err = %v, want ErrDivergence", tag, err)
					return
				}
				ops := batchOf(keysOn(tag, 6, shards, 1, 2, 3))
				results, err := sf.Do(ops)
				if err != nil {
					errs <- fmt.Errorf("%s: batch avoiding the halted shard: %v", tag, err)
					return
				}
				if why := ownResults(ops, results); why != "" {
					errs <- fmt.Errorf("%s: %s", tag, why)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPooledReplyCloseRacesDo: Close racing with Do gives each caller
// ErrClosed or its own results, never another batch's, and no caller
// hangs: a worker that exits owing an answer makes its gather return
// ErrClosed, and the channel it was owed on never goes back to the pool.
func TestPooledReplyCloseRacesDo(t *testing.T) {
	const shards, workers = 4, 4
	for trial := range 20 {
		sf := newSharded(t, shards, 8, false)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		started := make(chan struct{}, workers)
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; ; r++ {
					ops := batchOf(keysOn(fmt.Sprintf("t%d-g%d-r%d", trial, g, r), 1+r%5, shards, 0, 1, 2, 3))
					results, err := sf.Do(ops)
					if r == 0 {
						started <- struct{}{}
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						errs <- fmt.Errorf("trial %d, caller %d, batch %d: %v", trial, g, r, err)
						return
					}
					if why := ownResults(ops, results); why != "" {
						errs <- fmt.Errorf("trial %d, caller %d, batch %d: %s", trial, g, r, why)
						return
					}
				}
			}()
		}
		for range workers {
			<-started
		}
		sf.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
