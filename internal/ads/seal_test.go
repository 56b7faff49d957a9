package ads

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"grub/internal/merkle"
	"grub/internal/sim"
)

// referenceRoot is the digest definition written down once more, with no
// tree to maintain: the canonical treap over recs (sorted by (state, key))
// has the highest node of every span as that span's root, and every node is
// hashed eagerly from its record's encoding. The deferred, in-place tree
// must produce exactly this for whatever records it holds.
func referenceRoot(recs []Record) merkle.Hash {
	probes := make([]*node, len(recs))
	for i, r := range recs {
		probes[i] = &node{key: r.Key, state: r.State, value: r.Value, prio: prioOf(r.State, r.Key)}
	}
	var hash func(span []*node) merkle.Hash
	hash = func(span []*node) merkle.Hash {
		if len(span) == 0 {
			return merkle.EmptyRoot()
		}
		top := 0
		for i := range span {
			if higher(span[i], span[top]) {
				top = i
			}
		}
		leaf := merkle.HashLeaf(span[top].record().Encode())
		return merkle.HashInner(merkle.HashInner(hash(span[:top]), leaf), hash(span[top+1:]))
	}
	return merkle.HashInner(CountLeaf(len(recs)), hash(probes))
}

// capture is a clone together with what it held when it was taken.
type capture struct {
	set  *Set
	root merkle.Hash
	recs []Record
}

func captureOf(s *Set) capture {
	c := s.Clone()
	return capture{set: c, root: c.Root(), recs: c.Records()}
}

// check reports whether the clone still is what it was at capture, and that
// what it was is the reference digest of its records.
func (c capture) check() error {
	if got := c.set.Root(); got != c.root {
		return fmt.Errorf("clone root %v, was %v at capture", got, c.root)
	}
	got := c.set.Records()
	if len(got) != len(c.recs) {
		return fmt.Errorf("clone has %d records, had %d at capture", len(got), len(c.recs))
	}
	for i, r := range c.recs {
		if g := got[i]; g.Key != r.Key || g.State != r.State || !bytes.Equal(g.Value, r.Value) {
			return fmt.Errorf("clone record %d = %+v, was %+v at capture", i, g, r)
		}
	}
	if want := referenceRoot(c.recs); c.root != want {
		return fmt.Errorf("captured root %v, reference digest of the captured records %v", c.root, want)
	}
	return nil
}

// mutate applies one random Put / Delete / SetState over a keys-wide key
// space.
func mutate(s *Set, r *sim.Rand, keys int) {
	k := fmt.Sprintf("key-%04d", r.Intn(keys))
	switch r.Intn(6) {
	case 0:
		s.Delete(k)
	case 1:
		s.SetState(k, State(r.Intn(2)))
	default:
		s.Put(Record{Key: k, State: State(r.Intn(2)), Value: []byte(fmt.Sprintf("v%d", r.Uint64()))})
	}
}

// checkTree walks the whole tree and reports the first violated structural
// invariant. sealed additionally requires what Root/Clone/Prove* leave
// behind: no dirty node, every cached leaf and hash current.
func checkTree(n *node, sealed bool) error {
	if n == nil {
		return nil
	}
	for _, c := range []*node{n.left, n.right} {
		if c != nil && c.dirty && !n.dirty {
			return fmt.Errorf("sealed node %q has dirty child %q: seal would never reach it", n.key, c.key)
		}
		if c != nil && higher(c, n) {
			return fmt.Errorf("heap order broken at %q / %q", n.key, c.key)
		}
		if err := checkTree(c, sealed); err != nil {
			return err
		}
	}
	if want := size(n.left) + 1 + size(n.right); size(n) != want {
		return fmt.Errorf("node %q has size %d, want %d", n.key, n.size, want)
	}
	if n.staleLeaf && !n.dirty {
		return fmt.Errorf("sealed node %q has a stale leaf", n.key)
	}
	if !sealed {
		return nil
	}
	if n.dirty {
		return fmt.Errorf("node %q is dirty after a seal", n.key)
	}
	if n.leaf != n.record().Leaf() {
		return fmt.Errorf("node %q caches a leaf that is not its record's", n.key)
	}
	if want := merkle.HashInner(merkle.HashInner(hashOf(n.left), n.leaf), hashOf(n.right)); n.hash != want {
		return fmt.Errorf("node %q has hash %v, want %v", n.key, n.hash, want)
	}
	return nil
}

// TestSealRule checks the two halves of deferred hashing on random op
// streams: between seals the dirty region is closed under "parent of"
// (so seal, which stops at sealed nodes, reaches all of it), and each of the
// sealing methods leaves no dirty node and the reference digest.
func TestSealRule(t *testing.T) {
	sealers := map[string]func(s *Set){
		"Root":         func(s *Set) { s.Root() },
		"Clone":        func(s *Set) { s.Clone() },
		"ProveIndex":   func(s *Set) { _, _ = s.ProveIndex(0) },
		"ProveAbsent":  func(s *Set) { _, _ = s.ProveAbsent("no such key") },
		"ProveRangeNR": func(s *Set) { _, _ = s.ProveRangeNR("key-0100", "key-0110") },
	}
	for name, sealer := range sealers {
		t.Run(name, func(t *testing.T) {
			r := sim.NewRand(7)
			s := NewSet()
			for epoch := 0; epoch < 200; epoch++ {
				for i, n := 0, 1+r.Intn(40); i < n; i++ {
					mutate(s, r, 300)
					if err := checkTree(s.root, false); err != nil {
						t.Fatalf("epoch %d, mutation %d: %v", epoch, i, err)
					}
				}
				if s.Len() == 0 {
					continue // ProveIndex(0) is a range error, not a seal
				}
				sealer(s)
				if err := checkTree(s.root, true); err != nil {
					t.Fatalf("epoch %d, after %s: %v", epoch, name, err)
				}
				if got, want := s.Root(), referenceRoot(s.Records()); got != want {
					t.Fatalf("epoch %d: root %v, reference %v", epoch, got, want)
				}
			}
		})
	}
}

// TestCloneIsOneAllocation is the deterministic form of "publication is
// O(1)": on a set anchored with Root — the order shardState.applyBatch uses
// — Clone allocates the Set header and nothing else, at any record count.
func TestCloneIsOneAllocation(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		if n > 1_000 && testing.Short() {
			continue
		}
		s := NewSet()
		for i := 0; i < n; i++ {
			s.Put(rec(fmt.Sprintf("key-%06d", i), State(i&1), "value"))
		}
		s.Root()
		if err := checkTree(s.root, true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var sink *Set
		if allocs := testing.AllocsPerRun(100, func() { sink = s.Clone() }); allocs != 1 {
			t.Errorf("n=%d: Clone made %v allocations, want 1", n, allocs)
		}
		if sink.Len() != n {
			t.Errorf("n=%d: clone has %d records", n, sink.Len())
		}
	}
}

// TestUnpublishedUpdateIsOneAllocation pins the ownership rule's payoff: with
// no Clone outstanding, a value update plus the Root that anchors it edits
// the sealed root path in place, so the value copy is the only allocation.
// A Capture without EndGeneration does not change that.
// The first update after a Clone copies its path instead — the clone must
// not see it — and the same key's next update is back to one allocation.
func TestUnpublishedUpdateIsOneAllocation(t *testing.T) {
	const n = 10_000
	s := NewSet()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		s.Put(rec(keys[i], State(i&1), "value"))
	}
	s.Root()
	value := []byte("a 32-byte value, as in the paper")
	i := 0
	update := func() {
		s.Put(Record{Key: keys[i*7919%n], State: State(i * 7919 % n & 1), Value: value})
		s.Root()
		i++
	}
	if allocs := testing.AllocsPerRun(100, update); allocs != 1 {
		t.Fatalf("update + Root with no clone outstanding: %v allocations, want 1", allocs)
	}
	// A capture whose generation is never ended — a view the shard worker
	// retracted because nobody pinned it — costs the update nothing: the set
	// edits the captured path in place, and the capture is abandoned.
	var retracted *Set
	if allocs := testing.AllocsPerRun(100, func() { retracted = s.Capture(); update() }); allocs != 2 {
		t.Fatalf("Capture then update: %v allocations, want 2 (the capture's header, the value copy)", allocs)
	}
	if retracted.root != s.root {
		t.Fatal("the update after a retracted capture copied the root it could edit in place")
	}

	c := captureOf(s)
	again := func() {
		s.Put(Record{Key: keys[0], Value: value})
		s.Root()
	}
	var frozen *Set
	if allocs := testing.AllocsPerRun(10, func() { frozen = s.Clone(); again() }); allocs < 10 {
		t.Fatalf("Clone then update: %v allocations, want the update's root path copied", allocs)
	}
	if frozen.Len() != n {
		t.Fatalf("clone has %d records", frozen.Len())
	}
	if err := c.check(); err != nil {
		t.Fatalf("after updates that follow clones: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, again); allocs != 1 {
		t.Fatalf("the same key's later updates: %v allocations, want 1", allocs)
	}
	if err := c.check(); err != nil {
		t.Fatalf("after in-place updates: %v", err)
	}
	if err := checkTree(s.root, true); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Root(), referenceRoot(s.Records()); got != want {
		t.Fatalf("root %v, reference %v", got, want)
	}
}

// TestNodeFitsItsSizeClass: the cached leaf hash was paid for by packing
// the flags beside size; one more word per node is 16 more bytes per record.
func TestNodeFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 144 {
		t.Fatalf("node is %d bytes, past the 144-byte allocation size class", got)
	}
}

// TestLeafHashesDoNotAllocate pins the stack-buffer kernels seal calls once
// per dirty node.
func TestLeafHashesDoNotAllocate(t *testing.T) {
	r := Record{Key: string(bytes.Repeat([]byte("k"), 36)), State: R, Value: bytes.Repeat([]byte("v"), 64)}
	if r.Leaf() != merkle.HashLeaf(r.Encode()) {
		t.Fatal("Record.Leaf is not HashLeaf(Encode())")
	}
	big := Record{Key: "big", Value: make([]byte, 4096)}
	if big.Leaf() != merkle.HashLeaf(big.Encode()) {
		t.Fatal("Record.Leaf is not HashLeaf(Encode()) past the stack buffer")
	}
	var sink merkle.Hash
	var prio uint64
	for name, f := range map[string]func(){
		"Record.Leaf": func() { sink = r.Leaf() },
		"CountLeaf":   func() { sink = CountLeaf(1 << 40) },
		"prioOf":      func() { prio = prioOf(r.State, r.Key) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	_, _ = sink, prio
}

// TestCloneIsolationUnderMutation is the ownership rule under -race: the
// owner keeps mutating (and sealing, and cloning, and editing its sealed
// nodes in place between epoch anchors) while readers use clones taken at
// random points. A reader must never observe — or, by the race
// detector, touch — memory the owner writes, every clone must remain what
// it was at capture, and every proof from a clone must verify against its
// captured root.
func TestCloneIsolationUnderMutation(t *testing.T) {
	const ops, keys, readers = 10_000, 400, 4
	handoff := make(chan capture)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := sim.NewRand(seed)
			for c := range handoff {
				if err := c.check(); err != nil {
					t.Error(err)
				}
				count := len(c.recs)
				for j := 0; j < 8; j++ {
					k := fmt.Sprintf("key-%04d", r.Intn(keys))
					if got, p, err := c.set.ProveKey(k); err == nil {
						if err := VerifyRecord(c.root, got, p); err != nil {
							t.Errorf("clone membership proof for %q: %v", k, err)
						}
						continue
					}
					ap, err := c.set.ProveAbsent(k)
					if err != nil {
						t.Errorf("clone can prove neither presence nor absence of %q: %v", k, err)
					} else if err := VerifyAbsentAt(c.root, count, k, ap); err != nil {
						t.Errorf("clone absence proof for %q: %v", k, err)
					}
				}
			}
		}(uint64(100 + i))
	}

	r := sim.NewRand(3)
	s := NewSet()
	var all []capture
	// anchored is the sealed root of the last epoch anchor, until the next
	// mutation; inPlace counts mutations that kept it as the root, that is,
	// edited a sealed node of the owner's generation in place.
	var anchored *node
	inPlace := 0
	for i := 0; i < ops; i++ {
		mutate(s, r, keys)
		if anchored != nil && s.root == anchored {
			inPlace++
		}
		anchored = nil
		switch n := r.Intn(50); {
		case n == 0:
			c := captureOf(s)
			all = append(all, c)
			handoff <- c
		case n < 10:
			s.Root() // an epoch anchor with no publication
			anchored = s.root
		}
	}
	close(handoff)
	wg.Wait()
	if len(all) < ops/100 {
		t.Fatalf("only %d clones taken", len(all))
	}
	if inPlace < ops/100 {
		t.Fatalf("only %d mutations edited a sealed root in place", inPlace)
	}
	// After every later mutation of the owner: still what they were.
	for i, c := range all {
		if err := c.check(); err != nil {
			t.Fatalf("clone %d of %d, after the owner finished: %v", i, len(all), err)
		}
	}
}

// BenchmarkSetPutEpoch is the write path's unit of work: an epoch of value
// updates on a 10k-record set, anchored by one Root. The deferred seal makes
// an epoch cost one hash pass over the union of its root paths.
func BenchmarkSetPutEpoch(b *testing.B) {
	const records = 10_000
	for _, epoch := range []int{4, 32} {
		b.Run(fmt.Sprintf("puts=%d", epoch), func(b *testing.B) {
			s := NewSet()
			keys := make([]string, records)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%05d", i)
				s.Put(rec(keys[i], State(i&1), "value"))
			}
			s.Root()
			r := sim.NewRand(1)
			value := []byte("a 32-byte value, as in the paper")
			var sink merkle.Hash
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < epoch; j++ {
					k := r.Intn(records)
					s.Put(Record{Key: keys[k], State: State(k & 1), Value: value})
				}
				sink = s.Root()
			}
			_ = sink
		})
	}
}
