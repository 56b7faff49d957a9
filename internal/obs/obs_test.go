package obs

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition parses Prometheus text format into sample map and
// per-family TYPE map, validating the line grammar as it goes.
func parseExposition(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	var lastHelp, lastType string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			lastHelp = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if parts[0] != lastHelp {
				t.Fatalf("TYPE %q does not follow its HELP (%q)", parts[0], lastHelp)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", parts[1], line)
			}
			types[parts[0]] = parts[1]
			lastType = parts[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label block: %q", line)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q before its TYPE header (last TYPE %q)", series, lastType)
			}
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		samples[series] = val
	}
	return samples, types
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("grub_test_ops_total", "ops applied", "feed")
	c.With(`we"ird\fe` + "\n" + `ed`).Add(3)
	c.With("plain").Inc()
	g := reg.NewGauge("grub_test_feeds", "live feeds")
	g.Set(2)
	g.Add(-0.5)
	h := reg.NewHistogramVec("grub_test_seconds", "latency", []float64{0.1, 1}, "stage")
	h.With("apply").Observe(0.05)
	h.With("apply").Observe(0.5)
	h.With("apply").Observe(5)

	var b strings.Builder
	WriteFamilies(&b, reg.Families())
	text := b.String()
	samples, types := parseExposition(t, text)

	if types["grub_test_ops_total"] != "counter" {
		t.Fatalf("counter type = %q", types["grub_test_ops_total"])
	}
	if types["grub_test_feeds"] != "gauge" {
		t.Fatalf("gauge type = %q", types["grub_test_feeds"])
	}
	if types["grub_test_seconds"] != "histogram" {
		t.Fatalf("histogram type = %q", types["grub_test_seconds"])
	}
	if v := samples[`grub_test_ops_total{feed="we\"ird\\fe\ned"}`]; v != 3 {
		t.Fatalf("escaped counter = %v; text:\n%s", v, text)
	}
	if v := samples[`grub_test_ops_total{feed="plain"}`]; v != 1 {
		t.Fatalf("plain counter = %v", v)
	}
	if v := samples["grub_test_feeds"]; v != 1.5 {
		t.Fatalf("gauge = %v", v)
	}
	// Histogram buckets must be cumulative and carry merged labels.
	if v := samples[`grub_test_seconds_bucket{stage="apply",le="0.1"}`]; v != 1 {
		t.Fatalf("bucket le=0.1 = %v; text:\n%s", v, text)
	}
	if v := samples[`grub_test_seconds_bucket{stage="apply",le="1"}`]; v != 2 {
		t.Fatalf("bucket le=1 = %v", v)
	}
	if v := samples[`grub_test_seconds_bucket{stage="apply",le="+Inf"}`]; v != 3 {
		t.Fatalf("bucket le=+Inf = %v", v)
	}
	if v := samples[`grub_test_seconds_count{stage="apply"}`]; v != 3 {
		t.Fatalf("histogram count = %v", v)
	}
	if v := samples[`grub_test_seconds_sum{stage="apply"}`]; math.Abs(v-5.55) > 1e-9 {
		t.Fatalf("histogram sum = %v", v)
	}
	// Families must render sorted by name.
	if !sortedFamilies(text) {
		t.Fatalf("families not sorted by name:\n%s", text)
	}
}

func sortedFamilies(text string) bool {
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			names = append(names, strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			return false
		}
	}
	return true
}

func TestWriteFamilies(t *testing.T) {
	derived := Family{Name: "grub_derived", Help: "derived at scrape", Type: "counter"}
	derived.Add(7, "feed", "a")
	derived.Add(1)
	var b strings.Builder
	WriteFamilies(&b, []Family{
		{Name: "grub_skip_me", Help: "empty family", Type: "gauge"},
		derived,
	})
	samples, types := parseExposition(t, b.String())
	if _, ok := types["grub_skip_me"]; ok {
		t.Fatal("empty family should be skipped")
	}
	if samples[`grub_derived{feed="a"}`] != 7 || samples["grub_derived"] != 1 {
		t.Fatalf("derived samples wrong: %v", samples)
	}
}

func TestEscapeLabel(t *testing.T) {
	got := EscapeLabel("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Fatalf("EscapeLabel = %q, want %q", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	// 90 fast, 9 medium, 1 slow: p50 in first bucket, p95 in second,
	// p99.5 in third.
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want in (0, 0.01]", p50)
	}
	if p95 := s.Quantile(0.95); p95 <= 0.01 || p95 > 0.1 {
		t.Fatalf("p95 = %v, want in (0.01, 0.1]", p95)
	}
	if p995 := s.Quantile(0.995); p995 <= 0.1 || p995 > 1 {
		t.Fatalf("p99.5 = %v, want in (0.1, 1]", p995)
	}
	if m := s.Mean(); math.Abs(m-(90*0.005+9*0.05+0.5)/100) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	// +Inf observations clamp quantiles to the top finite bound.
	h2 := NewHistogram([]float64{0.01})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.99); q != 0.01 {
		t.Fatalf("+Inf quantile = %v, want clamp to 0.01", q)
	}
	// Empty histogram.
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	if math.Abs(s.Sum-8.0) > 1e-6 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var fs FeedStages
	var p *Pipeline
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	tr.AddSpan(StageApply, 0, time.Now(), time.Millisecond)
	if tr.ID() != "" || tr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}
	if p.Feed("x") != nil {
		t.Fatal("nil pipeline must yield nil stages")
	}
	if fs.Hist(StageApply) != nil {
		t.Fatal("nil stages must yield nil histograms")
	}
	fs.Record(tr, StageApply, 0, time.Now(), time.Millisecond)
	if h.Snapshot().Count != 0 || c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var reg *Registry
	if reg.Families() != nil {
		t.Fatal("nil registry must have no families")
	}
	if reg.NewCounterVec("x", "y").With("z") != nil {
		t.Fatal("nil registry must yield nil counters")
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	base := tr.Start()
	tr.AddSpan(StagePersist, 1, base.Add(2*time.Millisecond), time.Millisecond)
	tr.AddSpan(StageIngress, -1, base, 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Stage != StageIngress || spans[1].Stage != StagePersist {
		t.Fatalf("spans not ordered by start: %+v", spans)
	}
	if spans[1].StartUS < 1900 || spans[1].DurUS < 900 {
		t.Fatalf("span timing off: %+v", spans[1])
	}

	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on empty ctx must be nil")
	}
	if id := NewTrace("").ID(); len(id) != 16 {
		t.Fatalf("generated ID = %q", id)
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Fatalf("trace IDs collide: %q", a)
	}
}

func TestPipelineStages(t *testing.T) {
	reg := NewRegistry()
	p := NewPipeline(reg)
	fs := p.Feed("orders")
	if fs == nil {
		t.Fatal("Feed must yield stages")
	}
	again := p.Feed("orders")
	for i, stage := range Stages {
		h := fs.Hist(stage)
		if h == nil {
			t.Fatalf("stage %q has no histogram", stage)
		}
		if again.Hist(stage) != h || fs[i] != h {
			t.Fatalf("stage %q: Feed must cache per feed id, index-aligned with Stages", stage)
		}
		h.Observe(0.001)
	}
	var b strings.Builder
	WriteFamilies(&b, reg.Families())
	samples, _ := parseExposition(t, b.String())
	for _, stage := range Stages {
		key := StageSecondsMetric + `_count{feed="orders",stage="` + stage + `"}`
		if samples[key] != 1 {
			t.Fatalf("stage %q not rendered (key %q): %v", stage, key, samples[key])
		}
	}
	if fs.Hist("nope") != nil {
		t.Fatal("unknown stage must be nil")
	}
}

// TestStageRecord: Record observes the stage's histogram and adds its span
// in one call, and picking a stage's histogram by name allocates nothing.
func TestStageRecord(t *testing.T) {
	fs := NewPipeline(NewRegistry()).Feed("orders")
	tr := NewTrace("")
	start := tr.Start().Add(time.Millisecond)
	fs.Record(tr, StagePersist, 3, start, 2*time.Millisecond)
	fs.Record(nil, StagePersist, 3, start, 2*time.Millisecond)
	if n := fs.Hist(StagePersist).Count(); n != 2 {
		t.Fatalf("persist histogram holds %d observations, want 2", n)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Stage != StagePersist || spans[0].Shard != 3 ||
		spans[0].StartUS != 1000 || spans[0].DurUS != 2000 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, stage := range Stages {
		if fs.Hist(stage).Count() != 0 && stage != StagePersist {
			t.Fatalf("stage %q observed a record meant for %q", stage, StagePersist)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		for _, stage := range Stages {
			fs.Hist(stage)
		}
	}); a != 0 {
		t.Fatalf("Hist allocates %v times per pass", a)
	}
}
