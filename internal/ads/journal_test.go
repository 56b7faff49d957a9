package ads

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"grub/internal/sim"
)

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// sameRecs reports the first difference between two record lists.
func sameRecs(got, want []Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i, r := range want {
		if g := got[i]; g.Key != r.Key || g.State != r.State || !bytes.Equal(g.Value, r.Value) {
			return fmt.Errorf("record %d = %+v, want %+v", i, g, r)
		}
	}
	return nil
}

// TestJournalRefusesCaptures: under an open journal Capture and Clone panic,
// since a rollback would rewrite nodes the capture reaches; so does opening a
// second journal, and closing one that is not open. Once the journal closes,
// either way, Capture works again.
func TestJournalRefusesCaptures(t *testing.T) {
	s := NewSet()
	for i := 0; i < 16; i++ {
		s.Put(rec(fmt.Sprintf("key-%02d", i), State(i&1), "value"))
	}
	for name, f := range map[string]func(){
		"Commit":   s.Commit,
		"Rollback": s.Rollback,
	} {
		if !panics(f) {
			t.Errorf("%s with no journal open did not panic", name)
		}
	}
	for _, end := range []func(){s.Commit, s.Rollback} {
		s.Journal()
		s.Put(rec("key-03", NR, "edited"))
		for name, f := range map[string]func(){
			"Capture": func() { s.Capture() },
			"Clone":   func() { s.Clone() },
			"Journal": s.Journal,
		} {
			if !panics(f) {
				t.Errorf("%s under an open journal did not panic", name)
			}
		}
		end()
		if c := s.Capture(); c.Len() != 16 {
			t.Errorf("capture after the journal closed has %d records", c.Len())
		}
	}
}

// TestJournalRollbackRestoresTheSet applies random batches under a journal,
// with epoch anchors (seals) inside them, and commits or rolls each back. A
// rollback must leave the sealed tree, root and records of the journal's
// open; a commit must keep the batch; a clone taken before the journal must
// be unchanged after either. The in-place path must actually be exercised:
// most batches edit a node of the set's generation.
func TestJournalRollbackRestoresTheSet(t *testing.T) {
	const batches, keys = 400, 200
	r := sim.NewRand(11)
	s := NewSet()
	for i := 0; i < keys/2; i++ {
		mutate(s, r, keys)
	}
	var clones []capture
	saved := 0
	for b := 0; b < batches; b++ {
		if r.Intn(8) == 0 {
			clones = append(clones, captureOf(s))
		}
		s.Journal()
		root, recs := s.Root(), s.Records()
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			mutate(s, r, keys)
			if r.Intn(4) == 0 {
				s.Root() // an epoch anchor inside the batch
			}
		}
		saved += len(s.j.saved)
		if r.Intn(2) == 0 {
			s.Rollback()
			if err := checkTree(s.root, true); err != nil {
				t.Fatalf("batch %d: after the rollback: %v", b, err)
			}
			if got := s.Root(); got != root {
				t.Fatalf("batch %d: rolled back to root %v, was %v", b, got, root)
			}
			if err := sameRecs(s.Records(), recs); err != nil {
				t.Fatalf("batch %d: after the rollback: %v", b, err)
			}
		} else {
			s.Commit()
			if got, want := s.Root(), referenceRoot(s.Records()); got != want {
				t.Fatalf("batch %d: committed root %v, reference %v", b, got, want)
			}
		}
		// The newest clone after every batch, all of them now and then.
		for i := len(clones) - 1; i >= 0 && (i == len(clones)-1 || b%50 == 0 || b == batches-1); i-- {
			if err := clones[i].check(); err != nil {
				t.Fatalf("batch %d: clone %d of %d: %v", b, i, len(clones), err)
			}
		}
	}
	if saved < batches {
		t.Fatalf("only %d nodes saved over %d batches: the journal barely saw an in-place edit", saved, batches)
	}
}

// TestJournalAllocations pins what the undo log costs: an update and its
// anchor under a journal, committed or rolled back, allocate nothing once
// the journal has grown to the batch's size (the set keeps the value), and
// Capture stays one allocation on a set that has journaled.
func TestJournalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
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
	for name, end := range map[string]func(){"commit": s.Commit, "rollback": s.Rollback} {
		if allocs := testing.AllocsPerRun(100, func() {
			s.Journal()
			s.Put(Record{Key: keys[i*7919%n], State: State(i * 7919 % n & 1), Value: value})
			s.Root()
			end()
			i++
		}); allocs != 0 {
			t.Errorf("journaled update + %s: %v allocations, want 0", name, allocs)
		}
	}
	var sink Set
	if allocs := testing.AllocsPerRun(100, func() { sink = s.Capture() }); allocs != 0 {
		t.Errorf("Capture after journaling: %v allocations, want 0", allocs)
	}
	if sink.Len() != n {
		t.Errorf("capture has %d records", sink.Len())
	}
}

// TestJournalRollbackUnderReaders is the journal under -race: the owner
// journals batches and rolls about half of them back, while readers prove
// keys from clones taken between batches. A rollback writes only nodes the
// owner edited in place, which no clone reaches, so no reader may race it,
// and every clone must keep verifying against its captured root.
func TestJournalRollbackUnderReaders(t *testing.T) {
	const batches, keys, readers = 2_000, 300, 4
	handoff := make(chan capture)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := sim.NewRand(seed)
			for c := range handoff {
				for j := 0; j < 8; j++ {
					k := fmt.Sprintf("key-%04d", r.Intn(keys))
					if got, p, err := c.set.ProveKey(k); err == nil {
						if err := VerifyRecord(c.root, got, p); err != nil {
							t.Errorf("clone membership proof for %q: %v", k, err)
						}
					} else if ap, err := c.set.ProveAbsent(k); err != nil {
						t.Errorf("clone can prove neither presence nor absence of %q: %v", k, err)
					} else if err := VerifyAbsentAt(c.root, len(c.recs), k, ap); err != nil {
						t.Errorf("clone absence proof for %q: %v", k, err)
					}
				}
				if err := c.check(); err != nil {
					t.Error(err)
				}
			}
		}(uint64(200 + i))
	}
	r := sim.NewRand(5)
	s := NewSet()
	var all []capture
	for b := 0; b < batches; b++ {
		if r.Intn(20) == 0 {
			c := captureOf(s)
			all = append(all, c)
			handoff <- c
		}
		s.Journal()
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			mutate(s, r, keys)
		}
		s.Root()
		if r.Intn(2) == 0 {
			s.Rollback()
		} else {
			s.Commit()
		}
	}
	close(handoff)
	wg.Wait()
	for i, c := range all {
		if err := c.check(); err != nil {
			t.Fatalf("clone %d of %d, after the owner finished: %v", i, len(all), err)
		}
	}
}
