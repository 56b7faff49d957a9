package ads

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"grub/internal/merkle"
	"grub/internal/sim"
)

func rec(key string, st State, val string) Record {
	return Record{Key: key, State: st, Value: []byte(val)}
}

func TestRecordEncodeDecode(t *testing.T) {
	r := rec("ether", R, "150USD")
	got, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != r.Key || got.State != r.State || string(got.Value) != string(r.Value) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte{0xff, 0x01}); err == nil {
		t.Fatal("bad state byte accepted")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestLeafDiffersByState(t *testing.T) {
	a := rec("k", NR, "v").Leaf()
	b := rec("k", R, "v").Leaf()
	if a == b {
		t.Fatal("leaf hash ignores replication state")
	}
}

func TestSetOrderingNRBeforeR(t *testing.T) {
	s := NewSet()
	s.Put(rec("z", NR, "1"))
	s.Put(rec("a", R, "2"))
	s.Put(rec("m", NR, "3"))
	s.Put(rec("b", R, "4"))
	recs := s.Records()
	wantOrder := []string{"m", "z", "a", "b"}
	for i, w := range wantOrder {
		if recs[i].Key != w {
			t.Fatalf("position %d = %s, want %s (layout must be NR group then R group)", i, recs[i].Key, w)
		}
	}
}

func TestPutUpdateAndRelocate(t *testing.T) {
	s := NewSet()
	s.Put(rec("k", NR, "v1"))
	root1 := s.Root()
	prev, existed := s.Put(rec("k", NR, "v2"))
	if !existed || prev != NR {
		t.Fatalf("update: prev=%v existed=%v", prev, existed)
	}
	if s.Root() == root1 {
		t.Fatal("value update did not change root")
	}
	prev, existed = s.Put(rec("k", R, "v3"))
	if !existed || prev != NR {
		t.Fatalf("relocate: prev=%v existed=%v", prev, existed)
	}
	got, ok := s.Get("k")
	if !ok || got.State != R || string(got.Value) != "v3" {
		t.Fatalf("after relocate: %+v ok=%v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after relocation, want 1", s.Len())
	}
}

// TestPutOutcomes covers each way Put can land — a new key, a same-state
// update in either group, and a relocation each way — among neighbours in
// both groups: Put's (prev, existed), and a set that matches, record for
// record and root for root, one built from the final records alone.
func TestPutOutcomes(t *testing.T) {
	var base []Record
	for i := 0; i < 40; i++ {
		base = append(base, rec(fmt.Sprintf("k%02d", i), State(i%2), fmt.Sprint("v", i)))
	}
	for _, tc := range []struct {
		name        string
		put         Record
		prev        State
		existed     bool
		nr, r, size int
	}{
		{"new key", rec("k40", R, "new"), 0, false, 20, 21, 41},
		{"new key between", rec("k07x", NR, "new"), 0, false, 21, 20, 41},
		{"update NR", rec("k10", NR, "u"), NR, true, 20, 20, 40},
		{"update R", rec("k11", R, "u"), R, true, 20, 20, 40},
		{"NR to R", rec("k12", R, "u"), NR, true, 19, 21, 40},
		{"R to NR", rec("k13", NR, "u"), R, true, 21, 19, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet()
			final := map[string]Record{}
			for _, r := range base {
				s.Put(r)
				final[r.Key] = r
			}
			s.Root() // Put edits a sealed tree, as between epochs
			prev, existed := s.Put(tc.put)
			if prev != tc.prev || existed != tc.existed {
				t.Fatalf("Put = (%v, %v), want (%v, %v)", prev, existed, tc.prev, tc.existed)
			}
			final[tc.put.Key] = tc.put
			want := NewSet()
			for _, r := range final {
				want.Put(r)
			}
			if s.Len() != tc.size || s.CountState(NR) != tc.nr || s.CountState(R) != tc.r {
				t.Fatalf("Len %d, NR %d, R %d; want %d, %d, %d", s.Len(), s.CountState(NR), s.CountState(R), tc.size, tc.nr, tc.r)
			}
			if got, w := fmt.Sprint(s.Records()), fmt.Sprint(want.Records()); got != w {
				t.Fatalf("records %s, want %s", got, w)
			}
			if s.Root() != want.Root() {
				t.Fatal("root differs from the set built from the final records")
			}
			if err := checkTree(s.root, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSetStateRelocates(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	rootBefore := s.Root()
	if !s.SetState("a", R) {
		t.Fatal("SetState returned false for existing key")
	}
	if s.Root() == rootBefore {
		t.Fatal("state transition did not change root")
	}
	recs := s.Records()
	if recs[0].Key != "b" || recs[1].Key != "a" {
		t.Fatalf("layout after transition: %v, %v", recs[0].Key, recs[1].Key)
	}
	if s.SetState("ghost", R) {
		t.Fatal("SetState returned true for missing key")
	}
}

func TestDeleteChangesRoot(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	root := s.Root()
	if !s.Delete("a") {
		t.Fatal("Delete existing returned false")
	}
	if s.Root() == root {
		t.Fatal("delete did not change root")
	}
	if s.Delete("a") {
		t.Fatal("Delete missing returned true")
	}
}

func TestProveKeyVerify(t *testing.T) {
	s := NewSet()
	for i := 0; i < 37; i++ {
		st := NR
		if i%3 == 0 {
			st = R
		}
		s.Put(rec(fmt.Sprintf("key-%02d", i), st, fmt.Sprintf("v%d", i)))
	}
	root := s.Root()
	for i := 0; i < 37; i++ {
		key := fmt.Sprintf("key-%02d", i)
		r, p, err := s.ProveKey(key)
		if err != nil {
			t.Fatalf("ProveKey(%s): %v", key, err)
		}
		if err := VerifyRecord(root, r, p); err != nil {
			t.Fatalf("VerifyRecord(%s): %v", key, err)
		}
		// Tampered value must fail.
		bad := r
		bad.Value = []byte("forged")
		if err := VerifyRecord(root, bad, p); !errors.Is(err, merkle.ErrInvalidProof) {
			t.Fatalf("forged value accepted for %s", key)
		}
		// Tampered state must fail: the SP cannot lie about R/NR.
		bad = r
		if bad.State == NR {
			bad.State = R
		} else {
			bad.State = NR
		}
		if err := VerifyRecord(root, bad, p); !errors.Is(err, merkle.ErrInvalidProof) {
			t.Fatalf("forged state accepted for %s", key)
		}
	}
}

func TestProveKeyMissing(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	if _, _, err := s.ProveKey("nope"); err == nil {
		t.Fatal("ProveKey on missing key succeeded")
	}
}

func TestStaleProofRejected(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	r, p, err := s.ProveKey("a")
	if err != nil {
		t.Fatal(err)
	}
	// Freshness: after an update, the old proof must not verify against
	// the new root (replay attack).
	s.Put(rec("a", NR, "newer"))
	if err := VerifyRecord(s.Root(), r, p); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("stale proof accepted after update: %v", err)
	}
}

func TestRangeNR(t *testing.T) {
	s := NewSet()
	for i := 0; i < 20; i++ {
		st := NR
		if i%4 == 0 {
			st = R
		}
		s.Put(rec(fmt.Sprintf("k%02d", i), st, "v"))
	}
	root := s.Root()
	nr, err := s.ProveRangeNR("k03", "k10")
	if err != nil {
		t.Fatal(err)
	}
	// NR keys in [k03,k10]: all except k04, k08 (R): k03,k05,k06,k07,k09,k10.
	want := []string{"k03", "k05", "k06", "k07", "k09", "k10"}
	if len(nr.Records) != len(want) {
		t.Fatalf("ProveRangeNR returned %d records, want %d", len(nr.Records), len(want))
	}
	for i, w := range want {
		if nr.Records[i].Key != w {
			t.Fatalf("records[%d] = %s, want %s", i, nr.Records[i].Key, w)
		}
	}
	if err := VerifyRangeNRAt(root, s.Len(), "k03", "k10", nr); err != nil {
		t.Fatalf("VerifyRangeNRAt: %v", err)
	}
	// Omission attack: drop one record.
	cut := *nr
	cut.Records = cut.Records[1:]
	if err := VerifyRangeNRAt(root, s.Len(), "k03", "k10", &cut); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatal("omission accepted")
	}
}

func TestRangeNREmpty(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", R, "1"))
	root := s.Root()
	nr, err := s.ProveRangeNR("a", "z")
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Records) != 0 {
		t.Fatalf("expected empty NR range, got %d", len(nr.Records))
	}
	if err := VerifyRangeNRAt(root, s.Len(), "a", "z", nr); err != nil {
		t.Fatalf("empty range proof: %v", err)
	}
}

func TestAbsenceProof(t *testing.T) {
	s := NewSet()
	for _, k := range []string{"apple", "cherry", "grape"} {
		s.Put(rec(k, NR, "v"))
	}
	s.Put(rec("mango", R, "v"))
	root := s.Root()
	p, err := s.ProveAbsent("banana")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAbsent(root, "banana", p); err != nil {
		t.Fatalf("VerifyAbsent: %v", err)
	}
	if p.Size() <= 0 {
		t.Fatal("absence proof size not positive")
	}
	// Proving absence of a present key must fail at construction.
	if _, err := s.ProveAbsent("cherry"); err == nil {
		t.Fatal("ProveAbsent on present key succeeded")
	}
	// And a proof for one key must not verify for a present key.
	if err := VerifyAbsent(root, "cherry", p); err == nil {
		t.Fatal("absence proof transplanted to present key")
	}
}

func TestRootChangesAsSetGrows(t *testing.T) {
	s := NewSet()
	seen := map[merkle.Hash]bool{s.Root(): true}
	for i := 0; i < 9; i++ {
		s.Put(rec(fmt.Sprintf("k%d", i), NR, "v"))
		root := s.Root()
		if seen[root] {
			t.Fatalf("root repeated after insert %d", i)
		}
		seen[root] = true
	}
}

// TestCloneIsStableSnapshot pins the copy-on-write contract a pinned read
// view relies on: a clone keeps its root and contents while the original mutates,
// and many clones coexist.
func TestCloneIsStableSnapshot(t *testing.T) {
	s := NewSet()
	for i := 0; i < 50; i++ {
		s.Put(rec(fmt.Sprintf("k%02d", i), NR, "v"))
	}
	frozen := s.Clone()
	root, count := frozen.Root(), frozen.Len()
	s.Put(rec("k00", NR, "changed"))
	s.Delete("k17")
	s.SetState("k31", R)
	if frozen.Root() != root || frozen.Len() != count {
		t.Fatal("clone changed under mutation of the original")
	}
	got, ok := frozen.Get("k00")
	if !ok || string(got.Value) != "v" {
		t.Fatalf("clone sees the original's later write: %+v", got)
	}
	r, p, err := frozen.ProveKey("k17")
	if err != nil || VerifyRecord(root, r, p) != nil {
		t.Fatalf("clone cannot prove a record deleted later: %v", err)
	}
}

func TestDOSPRootAgreement(t *testing.T) {
	// Independent Set instances (a leader's and a follower's, or a feed's
	// and its restored copy's) fed identical operation sequences must
	// produce identical roots.
	f := func(seed uint64) bool {
		do, sp := NewSet(), NewSet()
		r := sim.NewRand(seed)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%02d", r.Intn(30))
			switch r.Intn(5) {
			case 0:
				do.Delete(k)
				sp.Delete(k)
			case 1:
				st := State(r.Intn(2))
				do.SetState(k, st)
				sp.SetState(k, st)
			default:
				st := State(r.Intn(2))
				v := fmt.Sprintf("v%d", r.Uint64())
				do.Put(Record{Key: k, State: st, Value: []byte(v)})
				sp.Put(Record{Key: k, State: st, Value: []byte(v)})
			}
			if do.Root() != sp.Root() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every record in a random set proves and verifies; range proofs
// over random NR spans verify.
func TestSetProofProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		s := NewSet()
		r := sim.NewRand(seed)
		for i := 0; i < n; i++ {
			s.Put(Record{
				Key:   fmt.Sprintf("key-%03d", r.Intn(80)),
				State: State(r.Intn(2)),
				Value: []byte(fmt.Sprintf("%d", r.Uint64())),
			})
		}
		root := s.Root()
		for _, rc := range s.Records() {
			rec2, p, err := s.ProveKey(rc.Key)
			if err != nil || VerifyRecord(root, rec2, p) != nil {
				return false
			}
		}
		lo := fmt.Sprintf("key-%03d", r.Intn(80))
		hi := fmt.Sprintf("key-%03d", r.Intn(80))
		if lo > hi {
			lo, hi = hi, lo
		}
		nr, err := s.ProveRangeNR(lo, hi)
		if err != nil {
			return false
		}
		return VerifyRangeNRAt(root, s.Len(), lo, hi, nr) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkProveKey4096(b *testing.B) {
	s := NewSet()
	for i := 0; i < 4096; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i), NR, "value"))
	}
	s.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.ProveKey(fmt.Sprintf("key-%05d", i%4096))
	}
}

func BenchmarkPutUpdate4096(b *testing.B) {
	s := NewSet()
	for i := 0; i < 4096; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i), NR, "value"))
	}
	s.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i%4096), NR, "value2"))
	}
}
