package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/repl"
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
// path: with Views on and no read in flight, a batch after the first copies
// no node of the published view, so it allocates what the same batch does
// with Views off plus the view itself (its header and the capture's). That
// holds for a view nobody read and for one whose reads were released before
// the batch. While a read holds each view across the batch, copy-on-write
// comes back: the batch copies the root paths it writes.
func TestUnreadViewsAreEditedInPlace(t *testing.T) {
	const records, writes = 10_000, 8
	type reads int
	const (
		none reads = iota
		released
		held
	)
	batchAllocs := func(views bool, r reads) float64 {
		sf := newViewFeed(t, views, records, writes)
		value := []byte("a 32-byte value, as in the paper")
		batch := make([]core.Op, writes)
		next := 0
		return testing.AllocsPerRun(50, func() {
			for j := range batch {
				batch[j] = core.Op{Type: "write", Key: fmt.Sprintf("key-%05d", next*7919%records), Value: value}
				next++
			}
			var v *query.View
			if r != none {
				var err error
				if v, err = sf.Engine().ViewOf(0); err != nil {
					t.Fatal(err)
				}
				if r == released {
					v.Release()
				}
			}
			if _, err := sf.Do(batch); err != nil {
				t.Fatal(err)
			}
			if r == held {
				v.Release()
			}
		})
	}
	off := batchAllocs(false, none)
	unread := batchAllocs(true, none)
	readReleased := batchAllocs(true, released)
	readHeld := batchAllocs(true, held)
	t.Logf("allocs per %d-write batch: views off %v, unread views %v, read then released %v, read held across the batch %v", writes, off, unread, readReleased, readHeld)
	if unread > off+3 {
		t.Errorf("unread views cost %v allocations per batch over views off (%v), want at most 3: the batch copied nodes of a view nobody read", unread-off, off)
	}
	if readReleased > off+3 {
		t.Errorf("views read and released cost %v allocations per batch over views off (%v), want at most 3: the batch copied nodes of a view no read was in", readReleased-off, off)
	}
	if readHeld < off+5*writes {
		t.Errorf("views held across the batch cost only %v allocations per batch over views off, want the written root paths copied", readHeld-off)
	}
}

// TestViewRetractionWaitsForRelease: the worker copies the nodes of a view
// that a read holds, so the held view keeps answering as published and
// verifying against its anchor; once every read of the current view is
// released, the next batch edits that view's nodes in place. The test sees
// the in-place edit by reading the released view after the batch, which a
// real reader must never do.
func TestViewRetractionWaitsForRelease(t *testing.T) {
	sf := newViewFeed(t, true, 64, 1)
	e := sf.Engine()
	const k = "key-00007"
	write := func(v string) {
		t.Helper()
		if _, err := sf.Do([]core.Op{{Type: "write", Key: k, Value: []byte(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(v *query.View) *query.GetResult {
		t.Helper()
		res, err := v.Get(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%q not found in view seq %d", k, res.Seq)
		}
		return res
	}

	held, err := e.ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}
	write("written while held")
	if res := get(held); string(res.Record.Value) != "preloaded value" {
		t.Fatalf("a held view changed under its read: %q = %q", k, res.Record.Value)
	} else if err := query.VerifyGet(k, res); err != nil {
		t.Fatalf("a held view no longer verifies against its anchor: %v", err)
	}
	held.Release()

	released, err := e.ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if res := get(released); string(res.Record.Value) != "written while held" {
		t.Fatalf("acked write reads back as %q", res.Record.Value)
	}
	released.Release()
	write("written after release")
	if res := get(released); string(res.Record.Value) != "written after release" {
		t.Fatalf("the batch after the release copied the released view's nodes: it still reads %q", res.Record.Value)
	}
}

// TestViewRetractionUnderReaders is the retraction protocol under -race: one
// writer applies batches while readReaders (see there) read the views, and
// the writer must read its acked writes.
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
	stop := startReaders(e, shards, keys, key)

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
	for _, err := range stop() {
		t.Error(err)
	}
}

// startReaders runs the readers of the view-retraction tests against e until
// the returned stop is called: two call Get back to back (and so race the
// worker's retraction of the view they load), two hold views across several
// batches and then release them, one fans Range scans over every shard, one
// polls Roots. Every answer must verify against
// its own view's anchor, a held view must keep answering exactly as it
// first did, each reader must see every shard's seq rise monotonically, and
// two observations of one (shard, seq) must carry one root. stop returns the
// readers' errors; it reports a reader still blocked 10 s after the call as
// one too, since a retracted view was then never succeeded.
func startReaders(e *query.Engine, shards, keys int, key func(int) string) (stop func() []error) {
	var mu sync.Mutex
	anchorAt := make(map[[2]uint64]query.Anchor) // (shard, seq) -> anchor
	sameAnchor := func(shard int, a query.Anchor) error {
		mu.Lock()
		defer mu.Unlock()
		id := [2]uint64{uint64(shard), a.Seq}
		if b, ok := anchorAt[id]; ok && a.Against(b) != query.Same {
			return fmt.Errorf("shard %d seq %d seen with two anchors: %+v and %+v", shard, a.Seq, a, b)
		}
		anchorAt[id] = a
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
		return sameAnchor(res.Shard, res.Anchor)
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
	for r := 0; r < 2; r++ { // a view held across the batches that follow it
		reader(func(i int, last []uint64) error {
			shard := (i + r) % shards
			v, err := e.ViewOf(shard)
			if err != nil {
				return err
			}
			defer v.Release()
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
				if res.Anchor != v.Anchor() {
					return fmt.Errorf("held view seq %d answered from seq %d", v.Anchor().Seq, res.Seq)
				}
				var val []byte
				if res.Found {
					val = res.Record.Value
				}
				if was, ok := first[k]; ok && !bytes.Equal(was, val) {
					return fmt.Errorf("held view seq %d changed %q from %q to %q", v.Anchor().Seq, k, was, val)
				}
				first[k] = val
			}
			return nil
		})
	}
	reader(func(i int, last []uint64) error { // a Range fans out to every shard's view
		lo, hi := key(i), key(i+keys/4)
		if hi < lo {
			lo, hi = hi, lo
		}
		rs, err := e.Range(lo, hi)
		if err != nil {
			return err
		}
		for j := range rs {
			r := &rs[j]
			if err := query.VerifyRange(lo, hi, r); err != nil {
				return fmt.Errorf("range [%q, %q] shard %d at seq %d: %w", lo, hi, r.Shard, r.Seq, err)
			}
			if err := monotone(last, r.Shard, r.Seq); err != nil {
				return err
			}
			if err := sameAnchor(r.Shard, r.Anchor); err != nil {
				return err
			}
		}
		return nil
	})
	reader(func(_ int, last []uint64) error { // Roots never counts a read in
		roots, err := e.Roots()
		if err != nil {
			return err
		}
		for _, ri := range roots {
			if err := monotone(last, ri.Shard, ri.Seq); err != nil {
				return err
			}
			if err := sameAnchor(ri.Shard, ri.Anchor()); err != nil {
				return err
			}
		}
		return nil
	})

	return func() []error {
		close(done)
		stopped := make(chan struct{})
		go func() { wg.Wait(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			return []error{fmt.Errorf("a reader is still blocked 10 s after stop: a retracted view was never succeeded")}
		}
		close(errs)
		var out []error
		for err := range errs {
			out = append(out, err)
		}
		return out
	}
}

// newFollower builds a one-shard replicating follower, with or without read
// views.
func newFollower(t *testing.T, views bool, epochOps int) *ShardedFeed {
	t.Helper()
	sf, err := New(Options{Shards: 1, Views: views, Repl: true},
		func(int) (*core.Feed, error) { return newTestFeed(epochOps) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	return sf
}

// TestReplicatedApplyAllocs is TestUnreadViewsAreEditedInPlace for the
// follower: with Views on and nobody reading, a shipped entry edits the
// retracted view's nodes in place under the set's undo journal, so it
// allocates what the same entry does with Views off plus the view itself.
// While a read holds each view across the entry, the entry copies the root
// paths it writes.
func TestReplicatedApplyAllocs(t *testing.T) {
	const records, writes, runs = 10_000, 8, 50
	leader, err := New(Options{Shards: 1, Repl: true},
		func(int) (*core.Feed, error) { return newTestFeed(writes) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	preload := make([]core.Op, records)
	for i := range preload {
		preload[i] = core.Op{Type: "write", Key: fmt.Sprintf("key-%05d", i), Value: []byte("preloaded value")}
	}
	if _, err := leader.Do(preload); err != nil {
		t.Fatal(err)
	}
	value := []byte("a 32-byte value, as in the paper")
	for b := 0; b <= runs; b++ { // AllocsPerRun makes one warm-up run
		batch := make([]core.Op, writes)
		for j := range batch {
			batch[j] = core.Op{Type: "write", Key: fmt.Sprintf("key-%05d", (b*writes+j)*7919%records), Value: value}
		}
		if _, err := leader.Do(batch); err != nil {
			t.Fatal(err)
		}
	}
	page, err := leader.ReplPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != runs+2 {
		t.Fatalf("leader log holds %d entries, want %d", len(page.Entries), runs+2)
	}

	entryAllocs := func(views, hold bool) float64 {
		f := newFollower(t, views, writes)
		if err := f.Apply(0, page.Entries[0]); err != nil {
			t.Fatal(err)
		}
		next := 1
		return testing.AllocsPerRun(runs, func() {
			var v *query.View
			if hold {
				var err error
				if v, err = f.Engine().ViewOf(0); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Apply(0, page.Entries[next]); err != nil {
				t.Fatal(err)
			}
			if hold {
				v.Release()
			}
			next++
		})
	}
	off := entryAllocs(false, false)
	unread := entryAllocs(true, false)
	held := entryAllocs(true, true)
	t.Logf("allocs per shipped %d-write entry: views off %v, unread views %v, views held across the entry %v", writes, off, unread, held)
	if unread > off+3 {
		t.Errorf("unread views cost %v allocations per entry over views off (%v), want at most 3: the entry copied nodes of a view nobody read", unread-off, off)
	}
	if held < off+5*writes {
		t.Errorf("views held across the entry cost only %v allocations per entry over views off, want the written root paths copied", held-off)
	}
}

// TestReplicatedViewRetractionUnderReaders is the retraction protocol on a
// follower under -race: shipped entries apply while startReaders' readers
// read the views, and one tampered entry is refused mid-run, on whichever
// path (journal and rollback, or copy) the readers left it. The refused
// shard must keep serving its pre-batch anchor, and no read may block on it.
func TestReplicatedViewRetractionUnderReaders(t *testing.T) {
	const shards, keys, batches, batchLen, tamperAt = 2, 64, 300, 4, 150
	leader, err := New(Options{Shards: shards, Repl: true},
		func(int) (*core.Feed, error) { return newTestFeed(1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	follower, err := New(Options{Shards: shards, Views: true, Repl: true},
		func(int) (*core.Feed, error) { return newTestFeed(1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)
	e := follower.Engine()
	key := func(i int) string { return fmt.Sprintf("key-%03d", i%keys) }
	stop := startReaders(e, shards, keys, key)

	cursor := make([]uint64, shards)
	var refused query.RootInfo // shard 0's anchor when the tampered entry came
	halted := false
	for b := 0; b < batches; b++ {
		ops := make([]core.Op, batchLen)
		for j := range ops {
			ops[j] = core.Op{Type: "write", Key: key(b*batchLen + j), Value: []byte(fmt.Sprintf("v%d", b))}
		}
		if _, err := leader.Do(ops); err != nil {
			t.Fatal(err)
		}
		for sh := range cursor {
			if sh == 0 && halted {
				continue
			}
			page, err := leader.ReplPage(sh, cursor[sh], 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range page.Entries {
				if sh == 0 && b >= tamperAt {
					roots, err := e.Roots()
					if err != nil {
						t.Fatal(err)
					}
					refused = roots[0]
					ent.Ops = append([]core.Op(nil), ent.Ops...)
					ent.Ops[0].Value = append([]byte("x"), ent.Ops[0].Value...)
					if err := follower.Apply(sh, ent); !errors.Is(err, repl.ErrDivergence) {
						t.Fatalf("tampered entry seq %d: err = %v, want ErrDivergence", ent.Seq, err)
					}
					halted = true
					break
				}
				if err := follower.Apply(sh, ent); err != nil {
					t.Fatalf("shard %d apply seq %d: %v", sh, ent.Seq, err)
				}
				cursor[sh] = ent.Seq
			}
		}
	}
	for _, err := range stop() {
		t.Error(err)
	}
	if !halted {
		t.Fatal("no entry for shard 0 was tampered")
	}
	roots, err := e.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != refused {
		t.Errorf("refused shard serves %+v, want its pre-batch anchor %+v", roots[0], refused)
	}
	if roots[1].Seq != cursor[1] {
		t.Errorf("shard 1 serves seq %d, applied %d", roots[1].Seq, cursor[1])
	}
}
