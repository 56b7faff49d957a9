package ads

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"grub/internal/sim"
)

// legacySet is the pre-persistent-tree ADS reduced to its record semantics:
// a (state, key)-sorted slice with the exact pos/find/insert/remove logic
// the sorted-array implementation used. It is the differential oracle for
// the persistent tree — same op stream in, same record sequence out. (Roots
// are NOT compared: the digest layout intentionally changed.)
type legacySet struct {
	recs []Record
}

func (s *legacySet) pos(state State, key string) (int, bool) {
	i := sort.Search(len(s.recs), func(i int) bool {
		r := s.recs[i]
		return !less(r.State, r.Key, state, key)
	})
	if i < len(s.recs) && s.recs[i].State == state && s.recs[i].Key == key {
		return i, true
	}
	return i, false
}

func (s *legacySet) find(key string) (int, bool) {
	if i, ok := s.pos(NR, key); ok {
		return i, true
	}
	if i, ok := s.pos(R, key); ok {
		return i, true
	}
	return -1, false
}

func (s *legacySet) insertAt(i int, rec Record) {
	rec.Value = append([]byte(nil), rec.Value...)
	s.recs = append(s.recs, Record{})
	copy(s.recs[i+1:], s.recs[i:])
	s.recs[i] = rec
}

func (s *legacySet) removeAt(i int) {
	s.recs = append(s.recs[:i], s.recs[i+1:]...)
}

func (s *legacySet) Put(rec Record) (State, bool) {
	if i, ok := s.find(rec.Key); ok {
		prev := s.recs[i].State
		if prev == rec.State {
			s.recs[i].Value = append([]byte(nil), rec.Value...)
			return prev, true
		}
		s.removeAt(i)
		j, _ := s.pos(rec.State, rec.Key)
		s.insertAt(j, rec)
		return prev, true
	}
	j, _ := s.pos(rec.State, rec.Key)
	s.insertAt(j, rec)
	return 0, false
}

func (s *legacySet) Delete(key string) bool {
	i, ok := s.find(key)
	if !ok {
		return false
	}
	s.removeAt(i)
	return true
}

func (s *legacySet) SetState(key string, state State) bool {
	i, ok := s.find(key)
	if !ok {
		return false
	}
	if s.recs[i].State == state {
		return true
	}
	rec := s.recs[i]
	rec.State = state
	s.removeAt(i)
	j, _ := s.pos(state, key)
	s.insertAt(j, rec)
	return true
}

// rangeNR computes the oracle answer for "NR records with lo <= key <= hi".
func (s *legacySet) rangeNR(lo, hi string) []Record {
	var out []Record
	for _, r := range s.recs {
		if r.State == NR && r.Key >= lo && r.Key <= hi {
			out = append(out, r)
		}
	}
	return out
}

func sameRecords(t *testing.T, step int, want []Record, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("step %d: %d records, legacy oracle has %d", step, len(got), len(want))
	}
	for i := range want {
		if want[i].Key != got[i].Key || want[i].State != got[i].State ||
			!bytes.Equal(want[i].Value, got[i].Value) {
			t.Fatalf("step %d: record %d = %+v, legacy oracle has %+v", step, i, got[i], want[i])
		}
	}
}

// TestDifferentialAgainstLegacy drives the persistent tree and the legacy
// sorted-array semantics with identical randomized op streams: the record
// sequences must stay identical, every op result (prev state, existed) and
// the per-state record counts must agree at every step, the tree's proofs
// must verify against its root throughout, and clones taken along the way
// must come out of the stream unchanged.
func TestDifferentialAgainstLegacy(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := sim.NewRand(seed)
			s, oracle := NewSet(), &legacySet{}
			var clones []capture
			for step := 0; step < 600; step++ {
				k := fmt.Sprintf("key-%03d", r.Intn(120))
				switch r.Intn(7) {
				case 6:
					// Clone here and remember what it held; checked once
					// the stream has run on over it.
					c := captureOf(s)
					sameRecords(t, step, oracle.recs, c.recs)
					clones = append(clones, c)
				case 0:
					if s.Delete(k) != oracle.Delete(k) {
						t.Fatalf("step %d: Delete(%q) disagrees", step, k)
					}
				case 1:
					st := State(r.Intn(2))
					if s.SetState(k, st) != oracle.SetState(k, st) {
						t.Fatalf("step %d: SetState(%q) disagrees", step, k)
					}
				default:
					rec := Record{Key: k, State: State(r.Intn(2)), Value: []byte(fmt.Sprintf("v%d", r.Uint64()))}
					p1, e1 := s.Put(rec)
					p2, e2 := oracle.Put(rec)
					if p1 != p2 || e1 != e2 {
						t.Fatalf("step %d: Put(%q) = (%v,%v), legacy (%v,%v)", step, k, p1, e1, p2, e2)
					}
				}
				if s.Len() != len(oracle.recs) {
					t.Fatalf("step %d: Len %d, legacy %d", step, s.Len(), len(oracle.recs))
				}
				for _, st := range []State{NR, R} {
					want := 0
					for _, rec := range oracle.recs {
						if rec.State == st {
							want++
						}
					}
					if got := s.CountState(st); got != want {
						t.Fatalf("step %d: CountState(%v) = %d, legacy oracle has %d", step, st, got, want)
					}
				}
				if step%97 == 0 {
					sameRecords(t, step, oracle.recs, s.Records())
				}
			}
			sameRecords(t, 600, oracle.recs, s.Records())
			for i, c := range clones {
				if err := c.check(); err != nil {
					t.Fatalf("clone %d of %d: %v", i, len(clones), err)
				}
			}

			// Every surviving record proves and verifies; absent keys prove
			// absence; random range windows match the oracle and verify.
			root, count := s.Root(), s.Len()
			for _, rec := range s.Records() {
				got, p, err := s.ProveKey(rec.Key)
				if err != nil {
					t.Fatalf("ProveKey(%q): %v", rec.Key, err)
				}
				if err := VerifyRecord(root, got, p); err != nil {
					t.Fatalf("VerifyRecord(%q): %v", rec.Key, err)
				}
			}
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("gone-%03d", r.Intn(1000))
				ap, err := s.ProveAbsent(k)
				if err != nil {
					t.Fatalf("ProveAbsent(%q): %v", k, err)
				}
				if err := VerifyAbsentAt(root, count, k, ap); err != nil {
					t.Fatalf("VerifyAbsentAt(%q): %v", k, err)
				}
			}
			for i := 0; i < 20; i++ {
				lo := fmt.Sprintf("key-%03d", r.Intn(120))
				hi := fmt.Sprintf("key-%03d", r.Intn(120))
				if lo > hi {
					lo, hi = hi, lo
				}
				nr, err := s.ProveRangeNR(lo, hi)
				if err != nil {
					t.Fatalf("ProveRangeNR(%q,%q): %v", lo, hi, err)
				}
				sameRecords(t, -1, oracle.rangeNR(lo, hi), nr.Records)
				if err := VerifyRangeNRAt(root, count, lo, hi, nr); err != nil {
					t.Fatalf("VerifyRangeNRAt(%q,%q): %v", lo, hi, err)
				}
			}

			// History independence: rebuilding from the final records in
			// several shuffled orders — the legacy snapshot-replay path,
			// which re-Puts records in whatever order the snapshot holds —
			// reproduces the identical root.
			final := s.Records()
			for trial := 0; trial < 3; trial++ {
				shuffled := append([]Record(nil), final...)
				for i := len(shuffled) - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				rebuilt := NewSet()
				for _, rec := range shuffled {
					rebuilt.Put(rec)
				}
				if rebuilt.Root() != root {
					t.Fatalf("trial %d: shuffled replay root %v, want %v", trial, rebuilt.Root(), root)
				}
			}
		})
	}
}
