package ads

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// FuzzSetOps drives the persistent tree with an arbitrary byte-encoded op
// stream (Put / Delete / SetState / point proofs / absence proofs / range
// proofs / Root anchors / clones) against a plain map model. Every
// intermediate state must agree with the model, every proof must verify
// against the current root, every clone must still be what it was when taken
// at every later anchor and clone and once the stream ends, and
// the final state must be reproducible — identical root — by replaying the
// surviving records in sorted order (the snapshot-restore path).
//
// Wired into `make fuzz-smoke` so the corpus grows with the repo.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x10, 0x02, 0x20, 0x03})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x00, 0x01, 0x30, 0x31})
	f.Add(bytes.Repeat([]byte{0x00, 0x05, 0x25, 0x45}, 16))
	f.Add([]byte{0x01, 0x12, 0xf0, 0x01, 0x41, 0x72, 0xf0, 0x23, 0x80, 0xf0, 0x52})
	f.Add([]byte{0x01, 0x02, 0x03, 0xe0, 0x21, 0x12, 0xe0, 0xf0, 0x01, 0x51, 0xe0, 0x61, 0x02, 0xf0, 0x33, 0xe0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSet()
		model := map[string]Record{}
		var clones []capture
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
			case 14, 15: // an epoch anchor, or a clone; later ops edit in place
				if b>>4 == 14 {
					s.Root()
				} else {
					clones = append(clones, captureOf(s))
				}
				for i, c := range clones {
					if err := c.check(); err != nil {
						t.Fatalf("step %d: clone %d of %d: %v", step, i, len(clones), err)
					}
				}
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
		for i, c := range clones {
			if err := c.check(); err != nil {
				t.Fatalf("clone %d of %d: %v", i, len(clones), err)
			}
		}
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
