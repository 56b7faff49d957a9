package ycsb

import (
	"math"
	"sort"
	"testing"

	"grub/internal/sim"
	"grub/internal/workload"
)

func TestUniformRange(t *testing.T) {
	u := NewUniform(100, sim.NewRand(1))
	for i := 0; i < 10000; i++ {
		v := u.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Uniform.Next() = %d", v)
		}
	}
	u.SetItemCount(5)
	for i := 0; i < 100; i++ {
		if v := u.Next(); v >= 5 {
			t.Fatalf("after SetItemCount(5): %d", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(1000, sim.NewRand(2))
	counts := make([]int, 1000)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	// Item 0 must dominate: with theta=0.99 over 1000 items its
	// probability is ~1/zeta(1000,0.99) ~ 0.13.
	p0 := float64(counts[0]) / trials
	if p0 < 0.08 || p0 > 0.20 {
		t.Fatalf("P(item 0) = %.4f, want ~0.13", p0)
	}
	// Popularity must decay: top item >> median item.
	if counts[0] < 50*counts[500]+1 {
		t.Fatalf("no skew: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfianRangeAfterGrowth(t *testing.T) {
	z := NewZipfian(10, sim.NewRand(3))
	z.SetItemCount(100)
	seenHigh := false
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		if v >= 10 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Fatal("growth did not open the new range")
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	s := NewScrambledZipfian(1000, sim.NewRand(4))
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Find the hottest item; it should NOT be item 0 systematically
	// (scrambling moves it), and skew must persist.
	type kv struct{ k, n int }
	var all []kv
	for k, n := range counts {
		all = append(all, kv{k, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	if all[0].n < 5*all[len(all)/2].n {
		t.Fatal("scrambling destroyed the zipfian skew")
	}
}

func TestLatestPrefersRecent(t *testing.T) {
	l := NewLatest(1000, sim.NewRand(5))
	recent, old := 0, 0
	for i := 0; i < 50000; i++ {
		v := l.Next()
		if v >= 900 {
			recent++
		}
		if v < 100 {
			old++
		}
	}
	if recent <= old*5 {
		t.Fatalf("latest distribution not recency-skewed: recent=%d old=%d", recent, old)
	}
}

func TestWorkloadMixes(t *testing.T) {
	tests := []struct {
		spec       Spec
		wantReads  float64
		wantWrites float64 // updates+inserts+RMW-writes
		wantScans  float64
		logicalOps int
	}{
		{WorkloadA, 0.5, 0.5, 0, 4000},
		{WorkloadB, 0.95, 0.05, 0, 4000},
		{WorkloadC, 1.0, 0, 0, 2000},
		{WorkloadE, 0, 0.05, 0.95, 4000},
		{WorkloadF, 0.5 + 0.5, 0.5, 0, 4000}, // RMW contributes a read and a write
	}
	for _, tt := range tests {
		d := NewDriver(tt.spec, 1000, 64, 77)
		trace := d.Generate(tt.logicalOps)
		st := workload.Describe(trace)
		n := float64(tt.logicalOps)
		if tt.wantReads > 0 {
			got := float64(st.Reads) / n
			if math.Abs(got-tt.wantReads) > 0.05 {
				t.Errorf("workload %s: reads/op = %.3f, want %.3f", tt.spec.Name, got, tt.wantReads)
			}
		}
		if tt.wantWrites > 0 {
			got := float64(st.Writes) / n
			if math.Abs(got-tt.wantWrites) > 0.05 {
				t.Errorf("workload %s: writes/op = %.3f, want %.3f", tt.spec.Name, got, tt.wantWrites)
			}
		}
		if tt.wantScans > 0 {
			got := float64(st.Scans) / n
			if math.Abs(got-tt.wantScans) > 0.05 {
				t.Errorf("workload %s: scans/op = %.3f, want %.3f", tt.spec.Name, got, tt.wantScans)
			}
		}
	}
}

func TestInsertsGrowKeySpace(t *testing.T) {
	d := NewDriver(WorkloadD, 100, 32, 9)
	before := d.Records()
	d.Generate(2000)
	if d.Records() <= before {
		t.Fatalf("Records() = %d, want growth beyond %d (5%% inserts)", d.Records(), before)
	}
}

func TestPreload(t *testing.T) {
	d := NewDriver(WorkloadA, 50, 16, 1)
	pre := d.Preload()
	if len(pre) != 50 {
		t.Fatalf("Preload = %d ops", len(pre))
	}
	seen := map[string]bool{}
	for _, op := range pre {
		if !op.Write || len(op.Value) != 16 {
			t.Fatalf("bad preload op %+v", op)
		}
		seen[op.Key] = true
	}
	if len(seen) != 50 {
		t.Fatalf("preload wrote %d distinct keys", len(seen))
	}
}

func TestRMWPairsUpConsecutively(t *testing.T) {
	d := NewDriver(WorkloadF, 100, 16, 13)
	for i := 0; i < 500; i++ {
		ops := d.Next()
		if len(ops) == 2 {
			if ops[0].Write || !ops[1].Write {
				t.Fatal("RMW must be read-then-write")
			}
			if ops[0].Key != ops[1].Key {
				t.Fatal("RMW read and write keys differ")
			}
			return
		}
	}
	t.Fatal("no RMW generated in 500 ops of workload F")
}

func TestScanOps(t *testing.T) {
	d := NewDriver(WorkloadE, 200, 16, 21)
	sawScan := false
	for i := 0; i < 200; i++ {
		for _, op := range d.Next() {
			if op.ScanLen > 0 {
				sawScan = true
				if op.ScanLen > WorkloadE.MaxScanLen {
					t.Fatalf("scan length %d exceeds max %d", op.ScanLen, WorkloadE.MaxScanLen)
				}
			}
		}
	}
	if !sawScan {
		t.Fatal("workload E produced no scans")
	}
}

func TestMixedPhases(t *testing.T) {
	pre, phases := Mixed([]Phase{
		{Spec: WorkloadA, Ops: 500},
		{Spec: WorkloadB, Ops: 500},
		{Spec: WorkloadA, Ops: 500},
		{Spec: WorkloadB, Ops: 500},
	}, 1000, 64, 99)
	if len(pre) != 1000 {
		t.Fatalf("preload = %d", len(pre))
	}
	if len(phases) != 4 {
		t.Fatalf("phases = %d", len(phases))
	}
	// Phase read ratios must alternate 50% / 95%.
	for i, ops := range phases {
		st := workload.Describe(ops)
		frac := float64(st.Reads) / float64(st.Reads+st.Writes)
		want := 0.5
		if i%2 == 1 {
			want = 0.95
		}
		if math.Abs(frac-want) > 0.07 {
			t.Errorf("phase %d read fraction = %.3f, want %.2f", i, frac, want)
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	a := NewDriver(WorkloadA, 100, 32, 5).Generate(1000)
	b := NewDriver(WorkloadA, 100, 32, 5).Generate(1000)
	if len(a) != len(b) {
		t.Fatal("same seed different lengths")
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Write != b[i].Write {
			t.Fatalf("diverged at %d", i)
		}
	}
}
