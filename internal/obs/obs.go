// Package obs is the gateway's dependency-free telemetry layer: atomic
// counters, gauges, fixed-bucket latency histograms with derivable
// p50/p95/p99, and a lightweight span/trace abstraction whose IDs ride
// context.Context and the X-Grub-Trace HTTP header.
//
// A metric family has one in-memory form, Family. The Registry returns its
// families with each histogram expanded into _bucket/_sum/_count samples,
// the gateway derives the rest from live state at scrape time, and
// WriteFamilies renders them in the Prometheus text exposition format,
// which ParseExposition reads back. Pipeline holds one histogram per
// (feed, stage), picked by stage name.
//
// All metric handles are nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *Trace are no-ops, so instrumented code paths never
// need to guard on "is telemetry wired?".
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families; Families reads them.
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
	byKey  map[string]*series // label-values key -> series
	series []*series          // in insertion order
}

// series is one labeled child of a family.
type series struct {
	labels []LabelPair
	metric interface{} // *Counter | *Gauge | *Histogram
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
		byKey:  make(map[string]*series),
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
	var key []byte
	for _, v := range values {
		key = strconv.AppendQuote(key, v)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[string(key)]; ok {
		return s.metric
	}
	s := &series{metric: mk()}
	for i, v := range values {
		s.labels = append(s.labels, LabelPair{Name: f.labels[i], Value: v})
	}
	f.byKey[string(key)] = s
	f.series = append(f.series, s)
	return s.metric
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

// Families returns every registered family that has a series, sorted by
// name, with its series in creation order and their labels in declaration
// order. A histogram becomes cumulative _bucket samples, le last among
// their labels, then _sum and _count. The label slices are the registry's
// own: read them, do not write them.
func (r *Registry) Families() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		if fam := f.snapshot(); len(fam.Samples) > 0 {
			out = append(out, fam)
		}
	}
	return out
}

var kindType = [...]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}

// snapshot reads the family's series into a Family.
func (f *family) snapshot() Family {
	f.mu.Lock()
	series := append([]*series(nil), f.series...)
	f.mu.Unlock()
	fam := Family{Name: f.name, Help: f.help, Type: kindType[f.kind]}
	for _, s := range series {
		switch m := s.metric.(type) {
		case interface{ Value() float64 }: // *Counter, *Gauge
			fam.Samples = append(fam.Samples, Sample{Name: f.name, Labels: s.labels, Value: m.Value()})
		case *Histogram:
			h := m.Snapshot()
			cum := uint64(0)
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Upper) {
					le = formatFloat(h.Upper[i])
				}
				labels := append(s.labels[:len(s.labels):len(s.labels)], LabelPair{Name: "le", Value: le})
				fam.Samples = append(fam.Samples, Sample{Name: f.name + "_bucket", Labels: labels, Value: float64(cum)})
			}
			fam.Samples = append(fam.Samples,
				Sample{Name: f.name + "_sum", Labels: s.labels, Value: h.Sum},
				Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(h.Count)})
		}
	}
	return fam
}
