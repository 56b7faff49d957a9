package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"grub/internal/server"
)

func TestPercentileAndTailRule(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s[:10], 0.99); got != 10 {
		t.Errorf("p99 of ten samples = %v, want their maximum", got)
	}
	// Ten samples must lie beyond a reported percentile: 1000 samples
	// support a p99, 999 do not, and a p99.9 needs 10000.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {9999, 0.999, false}, {10000, 0.999, true}, {20, 0.50, true}, {19, 0.50, false}} {
		if got := supportsQuantile(c.n, c.q); got != c.want {
			t.Errorf("supportsQuantile(%d, %v) = %v, want %v (beyond: %d)", c.n, c.q, got, c.want, samplesBeyond(c.n, c.q))
		}
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSummarizeIsMedianOverSegments(t *testing.T) {
	mk := func(rate, lo float64) segment {
		sg := segment{rate: rate, ops: 1000}
		for i := 0; i < 1000; i++ {
			sg.latMs = append(sg.latMs, lo+float64(i))
		}
		return sg
	}
	// One slow segment (a noisy neighbour) must not move the result.
	sum, err := summarize([]segment{mk(100, 1), mk(110, 1), mk(10, 500)}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.opsPerS != 100 || sum.p50Ms != 500 || sum.p99Ms != 990 {
		t.Errorf("summary %+v, want rate 100, p50 500, p99 990", sum)
	}
	if sum.drift != 0.1 || sum.samples != 3000 || sum.minSegment != 1000 {
		t.Errorf("summary %+v, want drift 0.1 over 3000 samples", sum)
	}
	short := mk(100, 1)
	short.latMs = short.latMs[:999]
	if _, err := summarize([]segment{short}, 1000); err == nil {
		t.Error("a 999-request segment must be refused at the 1000-request floor")
	}
}

func TestSelfTimesAndTraceOverhead(t *testing.T) {
	rungs := []rung{{"ads", 10 * time.Millisecond}, {"core", 35 * time.Millisecond}, {"shard", 34 * time.Millisecond}, {"http", 50 * time.Millisecond}}
	want := []time.Duration{10 * time.Millisecond, 25 * time.Millisecond, -1 * time.Millisecond, 16 * time.Millisecond}
	got := selfTimes(rungs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != rungs[len(rungs)-1].total {
		t.Errorf("self times sum to %v, want the top rung %v", sum, rungs[len(rungs)-1].total)
	}
	if us := perOpUs(32*time.Millisecond, 1000); us != 32 {
		t.Errorf("perOpUs = %v, want 32", us)
	}
	// Segments 1 and 3 are traced, 2 and 4 are not.
	over, err := traceOverhead([]segment{{rate: 90}, {rate: 100}, {rate: 90}, {rate: 100}})
	if err != nil || over < 0.0999 || over > 0.1001 {
		t.Errorf("trace overhead %v, %v; want 0.1", over, err)
	}
	if _, err := traceOverhead([]segment{{rate: 90}}); err == nil {
		t.Error("trace overhead without an untraced segment must fail")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	z := smokeSizes
	cfg := server.FeedConfig{ID: "f", EpochOps: 8}
	same := func(name string, gen func(seed uint64) any) {
		t.Helper()
		a, _ := json.Marshal(gen(7))
		b, _ := json.Marshal(gen(7))
		c, _ := json.Marshal(gen(8))
		if string(a) != string(b) {
			t.Errorf("%s: two generations from one seed differ", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 give identical inputs", name)
		}
	}
	same("ycsb-a batches", func(s uint64) any { in := genYCSBA(cfg, 64, 32, 16, 20, s); return [][][]Op{in.preload, in.batches} })
	same("read mix", func(s uint64) any {
		type flat struct {
			Kind      int
			Key, Lo   string
			Batch     []Op
			RangeFrom int
		}
		var out []flat
		for _, r := range genReadMix(z, 400, s) {
			out = append(out, flat{r.kind, r.key, r.lo, r.batch, r.loIdx})
		}
		return out
	})
	same("paper traces", func(s uint64) any {
		var out []any
		for _, tr := range genPaper(z, 3, 4, s) {
			if len(tr.ops) != 3*4*z.PaperSliceOps {
				t.Errorf("%s: %d ops, want exactly %d", tr.name, len(tr.ops), 3*4*z.PaperSliceOps)
			}
			out = append(out, tr.preload, tr.ops)
		}
		return out
	})
}

// Op shortens the test's type literals.
type Op = server.Op

func smokeEnv(t *testing.T, seed uint64) *env {
	now := time.Now()
	return &env{dir: ".", z: smokeSizes, smoke: true, seed: seed, seconds: 2, tmp: t.TempDir(), out: io.Discard, start: now, lastMark: now}
}

func requireMetrics(t *testing.T, name string, rep *report, specs []metricSpec) {
	t.Helper()
	for _, m := range specs {
		if _, ok := rep.metrics[m.Name]; !ok {
			t.Errorf("%s: no value for %s", name, m.Name)
		}
	}
	if len(rep.mismatches) > 0 || rep.failed > 0 {
		t.Errorf("%s: %d failed of %d, oracle mismatches %v", name, rep.failed, rep.attempted, rep.mismatches)
	}
	if rep.attempted < 1 {
		t.Errorf("%s: nothing attempted", name)
	}
}

// TestSmokeWorkloads runs every workload end to end at smoke size, untraced
// (all oracles, every end-to-end metric) and traced (the whole depth ladder,
// every per-layer metric).
func TestSmokeWorkloads(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(smokeEnv(t, 3), nil)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, name, rep, endToEnd)
			for _, m := range endToEnd {
				if rep.metrics[m.Name] <= 0 {
					t.Errorf("%s: %s = %v, end-to-end metrics are never 0", name, m.Name, rep.metrics[m.Name])
				}
			}

			tr := newTracer()
			rep, err = run(smokeEnv(t, 3), tr)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, name+" traced", rep, perLayer)
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for i, sp := range tr.spans {
				if sp.EndNs < sp.StartNs || sp.Parent >= len(tr.spans) || sp.Name == "" || sp.Layer == "" {
					t.Fatalf("span %d malformed: %+v", i, sp)
				}
			}
		})
	}
}

// TestGoldenGas pins the exact Gas of every paper trace under GRuB, BL1 and
// BL2 for seed 1 at smoke size; runPaper itself compares against the file.
func TestGoldenGas(t *testing.T) {
	e := smokeEnv(t, goldenSeed)
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g.Sets[e.sizeKey()]
	if !ok || len(want) != 3 {
		t.Fatalf("golden file has no complete %s set", e.sizeKey())
	}
	rep, err := runPaper(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) > 0 {
		t.Fatalf("Gas moved: %v", rep.mismatches)
	}
	if !reflect.DeepEqual(e.paperTotals, want) {
		t.Errorf("totals %+v, golden %+v", e.paperTotals, want)
	}
	// Any other seed still gets the determinism replay and must pass it.
	other := smokeEnv(t, goldenSeed+1)
	if rep, err = runPaper(other, nil); err != nil || len(rep.mismatches) > 0 {
		t.Errorf("seed %d: %v %v", other.seed, err, rep.mismatches)
	}
	if reflect.DeepEqual(other.paperTotals, want) {
		t.Error("a different seed reproduced the golden totals: inputs ignore the seed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables and
// the workload set.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, harness runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.Paths, []string{benchDir}) || !reflect.DeepEqual(spec.Command, []string{"go", "run", "./" + benchDir}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	full := &env{seconds: spec.RunSeconds}
	if _, ok := g.Sets[full.sizeKey()]; !ok {
		t.Errorf("golden file has no set for run_seconds=%d", spec.RunSeconds)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
