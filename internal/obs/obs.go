// Package obs is the gateway's dependency-free telemetry layer: atomic
// counters, gauges, fixed-bucket latency histograms with derivable
// p50/p95/p99, and a lightweight span/trace abstraction whose IDs ride
// context.Context and the X-Grub-Trace HTTP header. A Registry renders
// everything in the Prometheus text exposition format.
//
// All metric handles are nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *Trace are no-ops, so instrumented code paths never
// need to guard on "is telemetry wired?".
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string // label names, in declaration order

	mu     sync.Mutex
	series map[string]interface{} // label-values key -> *Counter | *Gauge | *Histogram
	order  []string               // insertion order of series keys
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind familyKind, labels []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with different kind", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]interface{}),
	}
	r.families[name] = f
	return f
}

func (f *family) child(values []string, mk func() interface{}) interface{} {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c
	}
	c := mk()
	f.series[key] = c
	f.order = append(f.order, key)
	return c
}

func labelKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=\"" + EscapeLabel(values[i]) + "\""
	}
	return "{" + joinComma(parts) + "}"
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// CounterVec is a family of monotonically increasing counters keyed by
// label values.
type CounterVec struct{ f *family }

// NewCounterVec registers (or fetches) a counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	c := v.f.child(values, func() interface{} { return &Counter{} })
	return c.(*Counter)
}

// Counter is a monotonically increasing float64. Nil-safe.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d float64) {
	if c == nil || d == 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ f *family }

// NewGaugeVec registers (or fetches) a gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// NewGauge registers a label-less gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	g := v.f.child(values, func() interface{} { return &Gauge{} })
	return g.(*Gauge)
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, d)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// NewHistogramVec registers (or fetches) a histogram family with the
// given bucket upper bounds (seconds). Bounds must be sorted ascending;
// a +Inf bucket is implicit. Nil buckets means DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels), buckets: buckets}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	h := v.f.child(values, func() interface{} { return NewHistogram(v.buckets) })
	return h.(*Histogram)
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), sorted by family name.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]interface{}, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(keys) == 0 {
		return
	}

	typ := "counter"
	switch f.kind {
	case kindGauge:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ)
	for i, key := range keys {
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
		case *Histogram:
			m.Snapshot().write(w, f.name, key)
		}
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
