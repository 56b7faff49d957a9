package core

import (
	"bytes"
	"fmt"
	"testing"

	"grub/internal/ads"
	"grub/internal/policy"
	"grub/internal/sim"
)

// TestSetKeepsOpValuesUnwritten is the ownership rule's property test.
// ads.Set.Put keeps the value bytes a write hands it, so every path an op
// takes past the set (epoch flush, promotion and demotion, relocation between
// the state groups, replica and deliver traffic, scans) must leave those
// bytes as they were handed over. Seeded batches of reads, writes and scans
// run through ApplyOps under a memoryless policy, so reads promote records
// and writes demote them. Afterwards a set rebuilt from deep copies of the
// live records must hash to the live root: a path that wrote into a stored
// value after the set hashed it would leave the live root stale. Every
// written value must also still equal the copy taken when it was handed
// over.
func TestSetKeepsOpValuesUnwritten(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: 4})
		rng := sim.NewRand(seed)
		var handed, copies [][]byte
		promoted, demoted := false, false
		replicas := 0
		for b := 0; b < 80; b++ {
			ops := make([]Op, 8)
			for j := range ops {
				key := fmt.Sprintf("k%02d", rng.Intn(24))
				switch rng.Intn(6) {
				case 0, 1:
					v := make([]byte, 1+rng.Intn(40))
					for i := range v {
						v[i] = byte(rng.Uint64())
					}
					ops[j] = Op{Type: "write", Key: key, Value: v}
					handed, copies = append(handed, v), append(copies, bytes.Clone(v))
				case 5:
					ops[j] = Op{Type: "scan", Key: key, ScanLen: 1 + rng.Intn(4)}
				default:
					ops[j] = Op{Type: "read", Key: key}
				}
			}
			for i, res := range ApplyOps(f, ops) {
				if res.Err != "" {
					t.Fatalf("seed %d batch %d op %d %+v: %s", seed, b, i, ops[i], res.Err)
				}
			}
			n := f.DO.Set().CountState(ads.R)
			promoted, demoted = promoted || n > replicas, demoted || n < replicas
			replicas = n
		}
		f.FlushEpoch()
		if !promoted || !demoted {
			t.Fatalf("seed %d: promoted %v, demoted %v: the trace must relocate records both ways", seed, promoted, demoted)
		}

		live := f.DO.Set()
		rebuilt := ads.NewSet()
		for _, rec := range live.Records() {
			rec.Value = bytes.Clone(rec.Value)
			rebuilt.Put(rec)
		}
		if rebuilt.Root() != live.Root() {
			t.Fatalf("seed %d: a set rebuilt from copies of the records does not hash to the live root: a stored value was written after it was hashed", seed)
		}
		for i := range handed {
			if !bytes.Equal(handed[i], copies[i]) {
				t.Fatalf("seed %d: written value %d changed from %x to %x after it was handed over", seed, i, copies[i], handed[i])
			}
		}
	}
}

// TestSetKeepsTheWrittenSlice pins the contract the allocation counts rest
// on: a write's value reaches the record set by reference, through the
// epoch flush and Put, with no copy on the way.
func TestSetKeepsTheWrittenSlice(t *testing.T) {
	f := newTestFeed(policy.Never{}, Options{EpochOps: 1})
	v := []byte("kept, not copied")
	ApplyOps(f, []Op{{Type: "write", Key: "k", Value: v}})
	rec, ok := f.DO.Set().Get("k")
	if !ok || len(rec.Value) != len(v) || &rec.Value[0] != &v[0] {
		t.Fatalf("the set holds %q (found %v), not the written slice", rec.Value, ok)
	}
}
