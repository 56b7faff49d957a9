package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/kvstore"
	"grub/internal/query"
	"grub/internal/workload/ycsb"
)

// barrierTimeout bounds how long a barrier waits for the other shards; a
// serial recovery never gets the second shard in, so it fails after this.
const barrierTimeout = 10 * time.Second

// barrier returns a gate that holds each caller until n callers have
// entered. It errors instead of blocking forever, so a build or Restore
// callback can fail New rather than hang the test.
func barrier(n int) func() error {
	var mu sync.Mutex
	entered := 0
	all := make(chan struct{})
	return func() error {
		mu.Lock()
		entered++
		if entered == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
			return nil
		case <-time.After(barrierTimeout):
			mu.Lock()
			defer mu.Unlock()
			return fmt.Errorf("barrier: only %d of %d shards entered within %v", entered, n, barrierTimeout)
		}
	}
}

// viewOptions is persistOptions with read views on, so tests can read every
// shard's (seq, root, count, height) anchor from the engine.
func viewOptions(dir string, shards int) Options {
	opts := persistOptions(dir, shards, 0, false)
	opts.Views = true
	return opts
}

func buildTestFeed(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) }

func roots(t *testing.T, sf *ShardedFeed) []query.RootInfo {
	t.Helper()
	rs, err := sf.Engine().Roots()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func drive(t *testing.T, sf *ShardedFeed, batches [][]core.Op) {
	t.Helper()
	for _, b := range batches {
		if _, err := sf.Do(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverShardsConcurrently pins that New prepares every shard at once:
// the build callbacks of a fresh store and the Restore callbacks of a
// snapshotted one each wait until all four shards have entered, which
// one-shard-at-a-time preparation never reaches.
func TestRecoverShardsConcurrently(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	enter := barrier(shards)
	sf, err := New(viewOptions(dir, shards), func(i int) (*core.Feed, error) {
		if err := enter(); err != nil {
			return nil, err
		}
		return buildTestFeed(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sf, persistBatches(8, 8, 3))
	want := roots(t, sf)
	sf.Close() // final snapshot on every shard: the reopen restores

	opts := viewOptions(dir, shards)
	restore, enter := opts.Persist.Restore, barrier(shards)
	opts.Persist.Restore = func(i int, snap *core.FeedSnapshot) (*core.Feed, error) {
		if err := enter(); err != nil {
			return nil, err
		}
		return restore(i, snap)
	}
	reopened, err := New(opts, func(i int) (*core.Feed, error) {
		return nil, fmt.Errorf("shard %d built fresh, want restored from its snapshot", i)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := roots(t, reopened); !reflect.DeepEqual(got, want) {
		t.Errorf("restored anchors diverge:\n got %+v\nwant %+v", got, want)
	}
}

// corruptFirstLogRecord overwrites a shard's first logged batch with a
// well-framed batch record whose payload is not an op batch, so replay fails
// on decode.
func corruptFirstLogRecord(t *testing.T, dir string, shard int) {
	t.Helper()
	db, err := kvstore.Open(shardDir(dir, shard), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(logKey(1), append(kvstore.AppendRecordHeader(nil, kvstore.RecordOpsWire, 1), "{not ops"...)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func shardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// copyDir copies a killed store tree to a fresh destination.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base (store background work and shard goroutines all exited).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoverErrorClosesEverything corrupts two shards of a killed 4-shard
// store: New must report the lower-indexed shard, leave no goroutine or open
// store behind, and leave the healthy shards' stores intact — with the
// corrupted shards put back from a copy taken before the corruption, the
// directory reopens to the pre-kill anchors, as the copy itself does.
func TestRecoverErrorClosesEverything(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	sf, err := New(viewOptions(dir, shards), buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sf, persistBatches(8, 8, 5))
	st, err := sf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range st.PerShard {
		if ps.Batches == 0 {
			t.Fatalf("shard %d logged no batch; pick another seed", ps.Shard)
		}
	}
	want := roots(t, sf)
	sf.Kill()

	pristine := filepath.Join(t.TempDir(), "copy")
	copyDir(t, dir, pristine)
	for _, sh := range []int{3, 1} {
		corruptFirstLogRecord(t, dir, sh)
	}

	base := runtime.NumGoroutine()
	if _, err := New(viewOptions(dir, shards), buildTestFeed); err == nil || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("New over corrupt shards 1 and 3 = %v, want shard 1's error", err)
	}
	waitGoroutines(t, base)

	for _, sh := range []int{1, 3} {
		if err := os.RemoveAll(shardDir(dir, sh)); err != nil {
			t.Fatal(err)
		}
		copyDir(t, shardDir(pristine, sh), shardDir(dir, sh))
	}
	for _, d := range []string{pristine, dir} {
		reopened, err := New(viewOptions(d, shards), buildTestFeed)
		if err != nil {
			t.Fatal(err)
		}
		if got := roots(t, reopened); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reopened anchors diverge:\n got %+v\nwant %+v", d, got, want)
		}
		reopened.Kill()
	}
}

// BenchmarkRecover times New over a killed persisted feed holding a fixed
// logged history (no snapshot: every batch replays), at several shard
// counts, and reports the recovered ops per second.
func BenchmarkRecover(b *testing.B) {
	const batches, opsPer = 256, 16
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			opts := persistOptions(dir, shards, 0, false)
			sf, err := New(opts, buildTestFeed)
			if err != nil {
				b.Fatal(err)
			}
			d := ycsb.NewDriver(ycsb.WorkloadA, 1024, 32, 1)
			for i := 0; i < batches; i++ {
				if _, err := sf.Do(core.FromWorkload(d.Generate(opsPer))); err != nil {
					b.Fatal(err)
				}
			}
			sf.Kill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recovered, err := New(opts, buildTestFeed)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				recovered.Kill()
				b.StartTimer()
			}
			b.ReportMetric(float64(batches*opsPer*b.N)/b.Elapsed().Seconds(), "recovered_ops/s")
		})
	}
}
