package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("grub_p_ops_total", "ops", "feed").With(`we"ird\fe` + "\n" + `ed`).Add(3)
	reg.NewGauge("grub_p_feeds", "feeds").Set(2.5)
	h := reg.NewHistogramVec("grub_p_seconds", "latency", []float64{0.1, 1}, "stage")
	h.With("apply").Observe(0.05)
	h.With("apply").Observe(5)

	var b strings.Builder
	WriteFamilies(&b, reg.Families())
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, b.String())
	}
	if !reflect.DeepEqual(fams, reg.Families()) {
		t.Fatalf("parsed families differ from the registry's:\n got %+v\nwant %+v", fams, reg.Families())
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	c := byName["grub_p_ops_total"]
	if c.Type != "counter" || len(c.Samples) != 1 {
		t.Fatalf("counter family = %+v", c)
	}
	if got := c.Samples[0].Labels; len(got) != 1 || got[0].Name != "feed" ||
		got[0].Value != `we"ird\fe`+"\n"+`ed` {
		t.Fatalf("escaped label did not round-trip: %+v", got)
	}
	if g := byName["grub_p_feeds"]; g.Type != "gauge" || g.Samples[0].Value != 2.5 {
		t.Fatalf("gauge family = %+v", g)
	}
	hf := byName["grub_p_seconds"]
	if hf.Type != "histogram" || len(hf.Samples) != 5 { // 3 buckets + sum + count
		t.Fatalf("histogram family = %+v", hf)
	}

	// Re-render with a node label and re-parse: every sample must carry it.
	var out strings.Builder
	WriteFamilies(&out, fams, LabelPair{Name: "node", Value: "n1"})
	refams, err := ParseExposition(out.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out.String())
	}
	for _, f := range refams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 || s.Labels[0] != (LabelPair{Name: "node", Value: "n1"}) {
				t.Fatalf("sample %s missing node label: %+v", s.Name, s.Labels)
			}
		}
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before header": "grub_x 1\n",
		"help without type":    "# HELP grub_x a\ngrub_x 1\n",
		"type without help":    "# TYPE grub_x gauge\ngrub_x 1\n",
		"unknown type":         "# HELP grub_x a\n# TYPE grub_x summary\ngrub_x 1\n",
		"bad metric name":      "# HELP 9grub a\n# TYPE 9grub gauge\n9grub 1\n",
		"duplicate series":     "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x 1\ngrub_x 2\n",
		"duplicate family":     "# HELP grub_x a\n# TYPE grub_x gauge\n# HELP grub_x a\n# TYPE grub_x gauge\n",
		"unterminated labels":  "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=\"m 1\n",
		"unquoted label":       "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=m} 1\n",
		"bad escape":           "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=\"\\t\"} 1\n",
		"bad value":            "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x one\n",
		"stray comment":        "# ANNOTATE hi\n",
		"foreign histo suffix": "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x_bucket{le=\"1\"} 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: parse accepted %q", name, text)
		}
	}
	// Values with spaces inside labels and exponent floats are legal.
	ok := "# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=\"a b, c\",node=\"x\"} 1.5e+06\n"
	fams, err := ParseExposition(ok)
	if err != nil {
		t.Fatalf("legal exposition rejected: %v", err)
	}
	if fams[0].Samples[0].Labels[0].Value != "a b, c" || fams[0].Samples[0].Value != 1.5e6 {
		t.Fatalf("parsed = %+v", fams[0].Samples[0])
	}
	// A sample may follow a later family's header; it still lands in its
	// own family.
	fams, err = ParseExposition("# HELP grub_a a\n# TYPE grub_a gauge\n# HELP grub_b b\n# TYPE grub_b gauge\ngrub_a 1\ngrub_b 2\n")
	if err != nil || len(fams) != 2 || len(fams[0].Samples) != 1 || fams[0].Samples[0].Value != 1 {
		t.Fatalf("interleaved exposition parsed to %+v, %v", fams, err)
	}
}

func TestTraceStitching(t *testing.T) {
	// Ingress node trace.
	tr := NewTrace("abcdabcdabcdabcd")
	tr.SetNode("http://a")
	base := tr.Start()
	tr.AddSpan(StageIngress, -1, base, 10*time.Millisecond)
	fwdStart := base.Add(time.Millisecond)
	tr.AddSpan(StageForward, -1, fwdStart, 8*time.Millisecond)

	// Owner node trace, parented under the forward hop.
	remote := NewTrace(tr.ID())
	remote.SetNode("http://b")
	remote.SetParent("http://a:" + StageForward)
	rbase := remote.Start()
	remote.AddSpan(StageRemoteApply, -1, rbase, 6*time.Millisecond)
	remote.AddSpan(StagePersist, 0, rbase.Add(time.Millisecond), 2*time.Millisecond)

	wire := EncodeSpans(remote.Spans())
	if wire == "" || strings.Contains(wire, "\n") {
		t.Fatalf("wire encoding unfit for a header: %q", wire)
	}
	spans, err := DecodeSpans(wire)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddRemoteSpans(spans, fwdStart.Sub(base))

	merged := tr.Spans()
	if len(merged) != 4 {
		t.Fatalf("merged spans = %+v", merged)
	}
	nodes := map[string][]string{}
	for _, sp := range merged {
		nodes[sp.Node] = append(nodes[sp.Node], sp.Stage)
		if sp.Node == "http://b" {
			if sp.Parent != "http://a:"+StageForward {
				t.Errorf("remote span %s parent = %q", sp.Stage, sp.Parent)
			}
			// Remote starts shifted by the forward hop's local start.
			if sp.StartUS < 1000 {
				t.Errorf("remote span %s start = %dus, want >= 1000", sp.Stage, sp.StartUS)
			}
		}
	}
	if len(nodes["http://a"]) != 2 || len(nodes["http://b"]) != 2 {
		t.Fatalf("span nodes = %+v", nodes)
	}

	// Decode failures surface as errors, not partial spans.
	if _, err := DecodeSpans("{not json"); err == nil {
		t.Error("malformed span payload accepted")
	}
	if got, err := DecodeSpans(""); err != nil || got != nil {
		t.Errorf("empty payload = %v, %v", got, err)
	}
}

func TestEncodeSpansBounded(t *testing.T) {
	spans := make([]SpanRecord, 2000)
	for i := range spans {
		spans[i] = SpanRecord{Stage: StageApply, Shard: i, Node: "http://some.node:8080", Parent: "http://other:forward"}
	}
	wire := EncodeSpans(spans)
	if len(wire) == 0 || len(wire) > 8<<10 {
		t.Fatalf("encoded size = %d, want (0, 8KiB]", len(wire))
	}
	kept, err := DecodeSpans(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 || len(kept) >= len(spans) {
		t.Fatalf("kept %d of %d spans, want a truncated non-empty prefix", len(kept), len(spans))
	}
}

func TestQuantileBucketEdges(t *testing.T) {
	// All mass in the +Inf bucket: every quantile clamps to the last
	// finite bound, never extrapolates past it.
	h := NewHistogram([]float64{0.01, 0.1})
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0.1 {
			t.Errorf("all-inf Quantile(%v) = %v, want clamp to 0.1", q, got)
		}
	}

	// Empty leading bucket: q=0 must land in the first bucket with
	// data, not report the empty bucket's bound.
	h2 := NewHistogram([]float64{0.01, 0.1, 1})
	h2.Observe(0.05) // second bucket
	s2 := h2.Snapshot()
	if got := s2.Quantile(0); got != 0.01 {
		t.Errorf("Quantile(0) = %v, want first non-empty bucket's lower bound 0.01", got)
	}
	if got := s2.Quantile(1); got != 0.1 {
		t.Errorf("Quantile(1) = %v, want 0.1", got)
	}

	// Exact bucket-edge ranks: 4 obs in (0, 0.01], 4 in (0.01, 0.1].
	h3 := NewHistogram([]float64{0.01, 0.1})
	for i := 0; i < 4; i++ {
		h3.Observe(0.005)
		h3.Observe(0.05)
	}
	s3 := h3.Snapshot()
	if got := s3.Quantile(0.5); got != 0.01 {
		t.Errorf("Quantile(0.5) at bucket edge = %v, want 0.01", got)
	}
	if got := s3.Quantile(1); got != 0.1 {
		t.Errorf("Quantile(1) = %v, want 0.1", got)
	}
	// Out-of-range q clamps.
	if got := s3.Quantile(-1); got != s3.Quantile(0) {
		t.Errorf("Quantile(-1) = %v, want Quantile(0)", got)
	}
	if got := s3.Quantile(2); got != s3.Quantile(1) {
		t.Errorf("Quantile(2) = %v, want Quantile(1)", got)
	}

	// A histogram with no finite buckets cannot estimate anything.
	h4 := NewHistogram([]float64{})
	h4.Observe(1)
	if got := h4.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("no-finite-buckets Quantile = %v, want 0", got)
	}
}

// FuzzParseExposition: arbitrary text, as a peer's /metrics scrape may
// hold, parses or is refused without panicking, and text that parses
// writes back through WriteFamilies to text that parses to the same
// families.
func FuzzParseExposition(f *testing.F) {
	reg := NewRegistry()
	reg.NewCounterVec("grub_p_ops_total", "ops", "feed").With(`we"ird\fe` + "\n" + `ed`).Add(3)
	reg.NewGauge("grub_p_feeds", "feeds").Set(2.5)
	reg.NewHistogramVec("grub_p_seconds", "latency", []float64{0.1, 1}, "feed", "stage").With("m", "apply").Observe(0.05)
	var b strings.Builder
	WriteFamilies(&b, reg.Families())
	f.Add(b.String())
	b.Reset()
	WriteFamilies(&b, reg.Families(), LabelPair{Name: "node", Value: "http://n1"})
	f.Add(b.String())
	f.Add("# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=\"a b, c\",node=\"x\"} 1.5e+06\n")
	f.Add("# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x NaN\ngrub_x{a=\"\"} -Inf\ngrub_x{b=\"1\",} -0\n")
	f.Add("# HELP h a\n# TYPE h histogram\nh_sum 1\n# HELP h_sum b\n# TYPE h_sum gauge\nh_sum{a=\"1\"} 2\n")
	f.Add("# HELP grub_x a\n# TYPE grub_x gauge\n")
	f.Add("# HELP grub_x a\n# TYPE grub_x gauge\ngrub_x{feed=\"\\t\"} 1\n")
	f.Add("# HELP grub_feed_load_ops_per_sec a\n# TYPE grub_feed_load_ops_per_sec gauge\ngrub_feed_load_ops_per_sec 1\ngrub_feed_load_ops_per_sec{feed=\"h\"} 2\ngrub_feed_load_ops_per_sec{feed=\"n\"} NaN\n")
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition(text)
		if err != nil {
			return
		}
		var out strings.Builder
		WriteFamilies(&out, fams)
		again, err := ParseExposition(out.String())
		if err != nil {
			t.Fatalf("written text does not parse: %v\ntext:\n%s", err, out.String())
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("families changed across a write:\n got %+v\nwant %+v", again, fams)
		}
		// GET /cluster/load reads a peer's accepted exposition as loads.
		loads := ReadLoads(fams)
		for i, l := range loads {
			if l.Feed == "" || !finite(l.OpsPerSec) || !finite(l.GasPerSec) {
				t.Fatalf("read an unusable load %+v", l)
			}
			if i > 0 && loads[i-1].OpsPerSec < l.OpsPerSec {
				t.Fatalf("loads not ranked: %+v", loads)
			}
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sameFamilies is reflect.DeepEqual on families, but with NaN equal to
// NaN and -0 equal to 0 (WriteFamilies writes both zeros as "0").
func sameFamilies(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j, sa := range fa.Samples {
			sb := fb.Samples[j]
			if sa.Name != sb.Name || !reflect.DeepEqual(sa.Labels, sb.Labels) ||
				sa.Value != sb.Value && !(sa.Value != sa.Value && sb.Value != sb.Value) {
				return false
			}
		}
	}
	return true
}
