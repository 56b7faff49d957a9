package ads

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"grub/internal/merkle"
)

// FuzzSetOps drives the persistent tree with an arbitrary byte-encoded op
// stream (Put / Delete / SetState / point proofs / absence proofs / range
// proofs / Root anchors / clones / journal open, commit and rollback) against
// a plain map model. Every intermediate state must agree with the model,
// every proof must verify against the current root, every clone must still
// be what it was when taken at every later anchor, clone and journal close
// and once the stream ends, every anchor and clone must leave a sealed tree
// (checkTree: each cached leaf, half and hash current), a rollback must
// restore the sealed tree, root, count and records of the journal's open
// (and the model goes back to its snapshot), a clone under an open journal
// must panic, and the final state must be reproducible — identical root — by
// replaying the surviving records in sorted order (the snapshot-restore
// path).
//
// Wired into `make fuzz-smoke` so the corpus grows with the repo.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x10, 0x02, 0x20, 0x03})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x00, 0x01, 0x30, 0x31})
	f.Add(bytes.Repeat([]byte{0x00, 0x05, 0x25, 0x45}, 16))
	f.Add([]byte{0x01, 0x12, 0xf0, 0x01, 0x41, 0x72, 0xf0, 0x23, 0x80, 0xf0, 0x52})
	f.Add([]byte{0x01, 0x02, 0x03, 0xe0, 0x21, 0x12, 0xe0, 0xf0, 0x01, 0x51, 0xe0, 0x61, 0x02, 0xf0, 0x33, 0xe0})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0xe0, 0xe8, 0x02, 0xe0, 0x12, 0x43, 0xef, 0x82, 0x83, 0xe9, 0x21, 0xeb})
	f.Add([]byte{0x01, 0x02, 0x13, 0xf0, 0xe8, 0x21, 0x42, 0xe0, 0x01, 0x73, 0xf0, 0xef, 0xe8, 0x05, 0xe0, 0x25, 0xea, 0xe9, 0x51, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSet()
		model := map[string]Record{}
		var clones []capture
		// open is what the set held when the open journal, if any, opened.
		type opened struct {
			root  merkle.Hash
			recs  []Record
			model map[string]Record
		}
		var open *opened
		checkClones := func(step int) {
			for i, c := range clones {
				if err := c.check(); err != nil {
					t.Fatalf("step %d: clone %d of %d: %v", step, i, len(clones), err)
				}
			}
		}
		// Each byte is one op: the high nibble selects the action, the low
		// nibble the key (a 16-key space keeps collisions frequent).
		for step, b := range data {
			key := fmt.Sprintf("k%x", b&0x0f)
			switch b >> 4 {
			case 0, 1, 2, 3: // Put NR / Put R, two value flavours
				rec := Record{Key: key, State: State((b >> 4) & 1), Value: []byte{b, byte(step)}}
				prev, existed := s.Put(rec)
				old, ok := model[key]
				if existed != ok || (ok && prev != old.State) {
					t.Fatalf("step %d: Put(%s) = (%v,%v), model (%v,%v)", step, key, prev, existed, old.State, ok)
				}
				model[key] = rec
			case 4, 5: // Delete
				if s.Delete(key) != (func() bool { _, ok := model[key]; return ok })() {
					t.Fatalf("step %d: Delete(%s) disagrees with model", step, key)
				}
				delete(model, key)
			case 6, 7: // SetState
				st := State((b >> 4) & 1)
				_, ok := model[key]
				if s.SetState(key, st) != ok {
					t.Fatalf("step %d: SetState(%s) disagrees with model", step, key)
				}
				if ok {
					rec := model[key]
					rec.State = st
					model[key] = rec
				}
			case 8, 9: // point read + proof
				rec, ok := s.Get(key)
				mrec, mok := model[key]
				if ok != mok || (ok && (rec.State != mrec.State || !bytes.Equal(rec.Value, mrec.Value))) {
					t.Fatalf("step %d: Get(%s) = (%+v,%v), model (%+v,%v)", step, key, rec, ok, mrec, mok)
				}
				if ok {
					got, p, err := s.ProveKey(key)
					if err != nil || VerifyRecord(s.Root(), got, p) != nil {
						t.Fatalf("step %d: membership proof for %s failed: %v", step, key, err)
					}
				} else {
					ap, err := s.ProveAbsent(key)
					if err != nil || VerifyAbsentAt(s.Root(), s.Len(), key, ap) != nil {
						t.Fatalf("step %d: absence proof for %s failed: %v", step, key, err)
					}
				}
			case 14, 15: // an epoch anchor, a journal action or a clone; later ops edit in place
				if b>>4 == 14 && b&0x0f >= 8 {
					// A journal action: open (8, 9), commit (10-12) or
					// roll back (13-15).
					switch low := b & 0x0f; {
					case low < 10:
						if open == nil {
							s.Journal()
							open = &opened{root: s.Root(), recs: s.Records(), model: maps.Clone(model)}
						}
					case open == nil:
					case low < 13:
						s.Commit()
						open = nil
					default:
						s.Rollback()
						if err := checkTree(s.root, true); err != nil {
							t.Fatalf("step %d: after the rollback: %v", step, err)
						}
						if got := s.Root(); got != open.root {
							t.Fatalf("step %d: rolled back to root %v, was %v at the journal's open", step, got, open.root)
						}
						if err := sameRecs(s.Records(), open.recs); err != nil {
							t.Fatalf("step %d: after the rollback: %v", step, err)
						}
						model, open = open.model, nil
					}
					checkClones(step)
					break
				}
				if b>>4 == 15 && open != nil {
					if !panics(func() { s.Clone() }) {
						t.Fatalf("step %d: Clone under an open journal did not panic", step)
					}
					break
				}
				if b>>4 == 14 {
					s.Root()
				} else {
					clones = append(clones, captureOf(s))
				}
				if err := checkTree(s.root, true); err != nil {
					t.Fatalf("step %d: after the anchor: %v", step, err)
				}
				checkClones(step)
			default: // range proof over a window derived from the byte
				lo := fmt.Sprintf("k%x", b&0x07)
				hi := fmt.Sprintf("k%x", (b&0x07)+(b>>5))
				nr, err := s.ProveRangeNR(lo, hi)
				if err != nil {
					t.Fatalf("step %d: ProveRangeNR(%s,%s): %v", step, lo, hi, err)
				}
				if err := VerifyRangeNRAt(s.Root(), s.Len(), lo, hi, nr); err != nil {
					t.Fatalf("step %d: VerifyRangeNRAt(%s,%s): %v", step, lo, hi, err)
				}
				var want []string
				for k, rec := range model {
					if rec.State == NR && k >= lo && k <= hi {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				if len(want) != len(nr.Records) {
					t.Fatalf("step %d: range [%s,%s] returned %d records, model has %d", step, lo, hi, len(nr.Records), len(want))
				}
				for i, k := range want {
					if nr.Records[i].Key != k {
						t.Fatalf("step %d: range record %d = %s, model %s", step, i, nr.Records[i].Key, k)
					}
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, s.Len(), len(model))
			}
		}
		checkClones(len(data))
		// Snapshot-replay determinism: sorted re-insertion of the final
		// records must reproduce the root bit for bit.
		recs := s.Records()
		rebuilt := NewSet()
		for _, rec := range recs {
			rebuilt.Put(rec)
		}
		if rebuilt.Root() != s.Root() {
			t.Fatalf("replayed root %v, want %v", rebuilt.Root(), s.Root())
		}
	})
}

// FuzzVerifyMember checks the contract's sealed-set fold against
// merkle.Verify on forged proofs. It builds a set from the input's first
// byte, seals it, proves the target key and then edits the proof or the set,
// one input byte pair per edit: a flipped sibling bit, a flipped side, a
// dropped or a repeated step, a forged record, a moved index, a changed
// leaf count, or a set mutated after the proof (another record or the
// proven one, whose rewrite is then presented) — left dirty, resealed, or
// journaled, sealed and rolled back. After every edit VerifyMember and
// merkle.Verify must agree on accept or reject, and at the end the genuine
// proof must still pass.
//
// Wired into `make fuzz-smoke`.
func FuzzVerifyMember(f *testing.F) {
	f.Add([]byte{8, 3, 0x00, 0x10})
	f.Add([]byte{40, 17, 0x08, 0x21, 0x01, 0x00, 0x01, 0x00})
	f.Add([]byte{47, 46, 0x02, 0x00, 0x13, 0x05, 0x04, 0x00, 0x05, 0x01})
	f.Add([]byte{1, 0, 0x03, 0x00, 0x00, 0xff})
	f.Add([]byte{30, 9, 0x07, 0x00, 0x0e, 0x04, 0x17, 0x02, 0x06, 0x01})
	f.Add([]byte{33, 20, 0x0f, 0x05, 0x07, 0x02, 0x00, 0x31, 0x07, 0x01})
	f.Add([]byte{30, 9, 0x07, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%48)
		key := func(i int) string { return fmt.Sprintf("k%02d", i%n) }
		s := NewSet()
		for i := 0; i < n; i++ {
			s.Put(Record{Key: key(i), State: State(i % 3 % 2), Value: []byte{byte(i)}})
		}
		root := s.Root()
		r, p, err := s.ProveKey(key(int(data[1])))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyMember(root, r, p); err != nil {
			t.Fatalf("genuine proof of %s refused: %v", r.Key, err)
		}

		forged, q := r, *p
		q.Path = slices.Clone(p.Path)
		agree := func(edit int) {
			t.Helper()
			leaf := forged.Leaf()
			got, want := s.VerifyMember(root, forged, &q), merkle.Verify(root, leaf, &q)
			if (got == nil) != (want == nil) {
				t.Fatalf("edit %d: VerifyMember says %v, merkle.Verify says %v", edit, got, want)
			}
		}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i], int(data[i+1])
			step := int(op>>3) % len(q.Path)
			switch op % 8 {
			case 0:
				q.Path[step].Hash[arg%merkle.HashSize] ^= 1 << (arg % 8)
			case 1:
				q.Path[step].Left = !q.Path[step].Left
			case 2:
				q.Path = slices.Delete(q.Path, step, step+1)
			case 3:
				q.Path = slices.Insert(q.Path, step, q.Path[arg%len(q.Path)])
			case 4:
				if arg%2 == 0 {
					forged.State ^= 1
				} else {
					forged.Value = append(slices.Clone(forged.Value), byte(arg))
				}
			case 5:
				q.Index += arg%3 - 1
			case 6:
				q.LeafCount += arg%3 - 1
			case 7:
				edit := Record{Key: key(arg), State: State(arg >> 7), Value: []byte{byte(op), byte(arg)}}
				if arg&4 != 0 { // rewrite the proven record and present the rewrite
					edit.Key = r.Key
					forged = edit
				}
				switch arg % 3 {
				case 0: // dirty: the edit's path is not resealed
					s.Put(edit)
				case 1:
					s.Put(edit)
					s.Root()
				case 2:
					s.Journal()
					s.Put(edit)
					s.Root()
					agree(i / 2)
					s.Rollback()
				}
			}
			agree(i / 2)
			if len(q.Path) == 0 {
				break
			}
		}
		if err := s.VerifyMember(root, r, p); err != nil {
			t.Fatalf("genuine proof after the edits: %v", err)
		}
	})
}
