package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"grub/internal/core"
	"grub/internal/query"
)

// newViewFeed builds a one-shard feed holding records keys key-00000...,
// preloaded and flushed, with or without read views.
func newViewFeed(t *testing.T, views bool, records, epochOps int) *ShardedFeed {
	t.Helper()
	sf, err := New(Options{Shards: 1, Views: views},
		func(int) (*core.Feed, error) { return newTestFeed(epochOps) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	preload := make([]core.Op, records)
	for i := range preload {
		preload[i] = core.Op{Type: "write", Key: fmt.Sprintf("key-%05d", i), Value: []byte("preloaded value")}
	}
	if _, err := sf.Do(preload); err != nil {
		t.Fatal(err)
	}
	if st, err := sf.Stats(); err != nil || st.Feed.Records != records {
		t.Fatalf("preloaded %+v, %v; want %d records", st.Feed, err, records)
	}
	return sf
}

// TestUnreadViewsAreEditedInPlace pins what publication costs the write
// path: with Views on and nobody reading, a batch after the first copies no
// node of the published view, so it allocates what the same batch does with
// Views off plus the view itself (its header and the capture's). Once a
// reader pins each view, copy-on-write comes back: the batch copies the root
// paths it writes.
func TestUnreadViewsAreEditedInPlace(t *testing.T) {
	const records, writes = 10_000, 8
	batchAllocs := func(views, pin bool) float64 {
		sf := newViewFeed(t, views, records, writes)
		value := []byte("a 32-byte value, as in the paper")
		batch := make([]core.Op, writes)
		next := 0
		return testing.AllocsPerRun(50, func() {
			for j := range batch {
				batch[j] = core.Op{Type: "write", Key: fmt.Sprintf("key-%05d", next*7919%records), Value: value}
				next++
			}
			if pin {
				if _, err := sf.Engine().ViewOf(0); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sf.Do(batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := batchAllocs(false, false)
	unread := batchAllocs(true, false)
	pinned := batchAllocs(true, true)
	t.Logf("allocs per %d-write batch: views off %v, unread views %v, pinned views %v", writes, off, unread, pinned)
	if unread > off+3 {
		t.Errorf("unread views cost %v allocations per batch over views off (%v), want at most 3: the batch copied nodes of a view nobody read", unread-off, off)
	}
	if pinned < off+5*writes {
		t.Errorf("pinned views cost only %v allocations per batch over views off, want the written root paths copied", pinned-off)
	}
}

// TestViewRetractionUnderReaders is the retraction protocol under -race: one
// writer applies batches while readers pin views and read them across
// several batches, readers call Get back to back (and so race the worker's
// retraction of the view they load), and others poll Roots. Every answer
// must verify against its own view's anchor, a pinned view must keep
// answering exactly as it first did, each reader must see every shard's seq
// rise monotonically, two observations of one (shard, seq) must carry one
// root, and the writer must read its acked writes.
func TestViewRetractionUnderReaders(t *testing.T) {
	const shards, keys, batches, batchLen = 2, 64, 300, 4
	sf, err := New(Options{Shards: shards, Views: true},
		func(int) (*core.Feed, error) { return newTestFeed(1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	e := sf.Engine()
	key := func(i int) string { return fmt.Sprintf("key-%03d", i%keys) }

	var mu sync.Mutex
	rootAt := make(map[[2]uint64]query.RootInfo) // (shard, seq) -> anchor
	sameAnchor := func(shard int, seq uint64, a query.RootInfo) error {
		mu.Lock()
		defer mu.Unlock()
		id := [2]uint64{uint64(shard), seq}
		if b, ok := rootAt[id]; ok && (a.Root != b.Root || a.Count != b.Count) {
			return fmt.Errorf("shard %d seq %d seen with two anchors: %v/%d and %v/%d", shard, seq, a.Root, a.Count, b.Root, b.Count)
		}
		rootAt[id] = a
		return nil
	}
	// monotone tracks one reader's last seq per shard.
	monotone := func(last []uint64, shard int, seq uint64) error {
		if seq < last[shard] {
			return fmt.Errorf("shard %d seq went back from %d to %d", shard, last[shard], seq)
		}
		last[shard] = seq
		return nil
	}
	checkGet := func(k string, res *query.GetResult, last []uint64) error {
		if err := query.VerifyGet(k, res); err != nil {
			return fmt.Errorf("get %q at seq %d: %w", k, res.Seq, err)
		}
		if err := monotone(last, res.Shard, res.Seq); err != nil {
			return err
		}
		return sameAnchor(res.Shard, res.Seq, query.RootInfo{Root: res.Root, Count: res.Count})
	}

	done := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	reader := func(run func(i int, last []uint64) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]uint64, shards)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := run(i, last); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ { // back-to-back Gets race the worker's retraction
		reader(func(i int, last []uint64) error {
			k := key(i*7 + r)
			res, err := e.Get(k)
			if err != nil {
				return err
			}
			return checkGet(k, res, last)
		})
	}
	for r := 0; r < 2; r++ { // a pinned view read across the batches that follow it
		reader(func(i int, last []uint64) error {
			shard := (i + r) % shards
			v, err := e.ViewOf(shard)
			if err != nil {
				return err
			}
			first := make(map[string][]byte)
			for j := 0; j < 3*keys; j++ {
				k := key(j)
				if query.ShardOf(k, shards) != shard {
					continue
				}
				res, err := v.Get(k, shards)
				if err != nil {
					return err
				}
				if err := checkGet(k, res, last); err != nil {
					return err
				}
				if res.Root != v.Root() || res.Seq != v.Seq() {
					return fmt.Errorf("pinned view seq %d answered from seq %d", v.Seq(), res.Seq)
				}
				var val []byte
				if res.Found {
					val = res.Record.Value
				}
				if was, ok := first[k]; ok && !bytes.Equal(was, val) {
					return fmt.Errorf("pinned view seq %d changed %q from %q to %q", v.Seq(), k, was, val)
				}
				first[k] = val
			}
			return nil
		})
	}
	reader(func(_ int, last []uint64) error { // Roots never pins
		roots, err := e.Roots()
		if err != nil {
			return err
		}
		for _, ri := range roots {
			if err := monotone(last, ri.Shard, ri.Seq); err != nil {
				return err
			}
			if err := sameAnchor(ri.Shard, ri.Seq, query.RootInfo{Root: ri.Root, Count: ri.Count}); err != nil {
				return err
			}
		}
		return nil
	})

	for b := 0; b < batches; b++ {
		ops := make([]core.Op, batchLen)
		for j := range ops {
			ops[j] = core.Op{Type: "write", Key: key(b*batchLen + j), Value: []byte(fmt.Sprintf("v%d", b))}
		}
		if _, err := sf.Do(ops); err != nil {
			t.Fatal(err)
		}
		if b%10 != 0 {
			continue // leave most views to the readers, or to nobody
		}
		// Acked, so published: the writes read back (EpochOps 1 flushes
		// every write).
		for _, op := range ops {
			res, err := e.Get(op.Key)
			if err != nil {
				t.Fatal(err)
			}
			if err := query.VerifyGet(op.Key, res); err != nil {
				t.Fatal(err)
			}
			if !res.Found || !bytes.Equal(res.Record.Value, op.Value) {
				t.Fatalf("batch %d: acked write %q=%q reads back as found=%v %+v", b, op.Key, op.Value, res.Found, res.Record)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
