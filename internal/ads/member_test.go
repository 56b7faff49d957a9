package ads

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"grub/internal/merkle"
)

// memberSet is a sealed set of n records, alternating NR and R.
func memberSet(n int) (*Set, []string) {
	s := NewSet()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		s.Put(rec(keys[i], State(i&1), "value"))
	}
	s.Root()
	return s, keys
}

// TestVerifyMemberHashesOnlyWhatTheSealDidNot pins where VerifyMember reads
// instead of hashing: every genuine proof on a sealed set folds with no hash
// at all, a forged proof hashes (and fails), a proof through a dirty path
// hashes its dirty steps (and passes), and a rollback restores the sealed
// nodes the fold reads.
func TestVerifyMemberHashesOnlyWhatTheSealDidNot(t *testing.T) {
	s, keys := memberSet(200)
	root := s.Root()
	proofs := make([]*merkle.Proof, len(keys))
	recs := make([]Record, len(keys))
	for i, k := range keys {
		r, p, err := s.ProveKey(k)
		if err != nil {
			t.Fatal(err)
		}
		recs[i], proofs[i] = r, p
		if hashed, err := s.verifyMember(root, r, p); err != nil || hashed != 0 {
			t.Fatalf("genuine proof of %s: hashed %d, err %v; want 0, nil", k, hashed, err)
		}
	}

	r, p := recs[77], proofs[77]
	forgeries := map[string]func(*Record, *merkle.Proof){
		"value":     func(r *Record, _ *merkle.Proof) { r.Value = []byte("forged") },
		"state bit": func(r *Record, _ *merkle.Proof) { r.State ^= 1 },
	}
	for i := range p.Path {
		forgeries[fmt.Sprintf("sibling %d", i)] = func(_ *Record, q *merkle.Proof) { q.Path[i].Hash[0] ^= 1 }
		forgeries[fmt.Sprintf("side %d", i)] = func(_ *Record, q *merkle.Proof) { q.Path[i].Left = !q.Path[i].Left }
	}
	for name, forge := range forgeries {
		fr, q := r, *p
		q.Path = slices.Clone(p.Path)
		forge(&fr, &q)
		hashed, err := s.verifyMember(root, fr, &q)
		if !errors.Is(err, merkle.ErrInvalidProof) || hashed == 0 {
			t.Errorf("%s forged: hashed %d, err %v; want > 0 and ErrInvalidProof", name, hashed, err)
		}
	}

	// merkle.Verify does not bind the index to the path, so neither does
	// VerifyMember; a moved index only pairs the steps with other nodes.
	moved := *p
	moved.Index++
	if hashed, err := s.verifyMember(root, r, &moved); err != nil || hashed == 0 {
		t.Fatalf("moved index: hashed %d, err %v; want > 0, nil", hashed, err)
	}

	// A mutation dirties its root path: the old proof still verifies against
	// the old root, hashing where the path crosses dirty nodes.
	s.Put(rec(keys[120], NR, "edited"))
	if hashed, err := s.verifyMember(root, r, p); err != nil || hashed == 0 {
		t.Fatalf("through a dirty path: hashed %d, err %v; want > 0, nil", hashed, err)
	}
	if err := merkle.Verify(root, r.Leaf(), p); err != nil {
		t.Fatal(err)
	}
	// Rewriting the proven record leaves its node's cached leaf stale: the
	// rewrite, presented with the old proof, must be hashed and refused.
	rewrite := rec(r.Key, r.State, "rewritten")
	s.Put(rewrite)
	if err := s.VerifyMember(root, rewrite, p); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("rewritten record on its dirty node: err %v, want ErrInvalidProof", err)
	}
	s.Put(r)

	// Undo the edit, journal and seal another, then roll back: the old
	// tree's sealed nodes answer again, and so does the count step once Root
	// has anchored the rolled-back set.
	s.Put(rec(keys[120], NR, "value"))
	if s.Root() != root {
		t.Fatal("restoring the value did not restore the root")
	}
	s.Journal()
	s.Put(rec(keys[3], NR, "journaled"))
	newRoot := s.Root()
	if hashed, err := s.verifyMember(root, r, p); err != nil || hashed == 0 {
		t.Fatalf("old proof on the journaled tree: hashed %d, err %v; want > 0, nil", hashed, err)
	}
	s.Rollback()
	// Root right after the rollback hashes nothing: the restored nodes are
	// sealed and the count step is the one Journal saved, for this tree.
	step := *s.top
	if step.tree != hashOf(s.root) || step.n != s.Len() {
		t.Fatal("rollback left Root's count step on the journaled tree")
	}
	if got := s.Root(); got == newRoot || got != root {
		t.Fatal("rollback did not restore the root")
	}
	if *s.top != step {
		t.Fatal("Root after Rollback rehashed its count step")
	}
	for i := range keys {
		if hashed, err := s.verifyMember(root, recs[i], proofs[i]); err != nil || hashed != 0 {
			t.Fatalf("after rollback, %s: hashed %d, err %v; want 0, nil", keys[i], hashed, err)
		}
	}

	// A capture caches no count step: it hashes that one step and agrees.
	c := s.Capture()
	if hashed, err := c.verifyMember(root, r, p); err != nil || hashed != 1 {
		t.Fatalf("on a capture: hashed %d, err %v; want 1, nil", hashed, err)
	}
	if err := c.VerifyMember(root, r, nil); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("nil proof: err %v, want ErrInvalidProof", err)
	}
}

// BenchmarkVerifyMember is the contract's deliver check on a sealed
// 16 384-record set, against the plain merkle.Verify fold of the same
// genuine proofs.
func BenchmarkVerifyMember(b *testing.B) {
	const records = 1 << 14
	s, keys := memberSet(records)
	root := s.Root()
	recs := make([]Record, records)
	proofs := make([]*merkle.Proof, records)
	for i, k := range keys {
		var err error
		if recs[i], proofs[i], err = s.ProveKey(k); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.VerifyMember(root, recs[i%records], proofs[i%records]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merkle.Verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := merkle.Verify(root, recs[i%records].Leaf(), proofs[i%records]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
