package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefBuckets spans ~1µs to 10s, which covers everything from a
// lock-free view publish to a follower snapshot bootstrap.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are in
// seconds. All methods are safe for concurrent use and nil-safe.
type Histogram struct {
	upper   []float64       // bucket upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram builds a standalone histogram (not registered anywhere)
// with the given bucket upper bounds; nil means DefBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be sorted ascending")
		}
	}
	return &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records a latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	idx := len(h.upper)
	for i, ub := range h.upper {
		if seconds <= ub {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	addFloat(&h.sumBits, seconds)
	h.count.Add(1)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	Count  uint64
	Sum    float64   // seconds
	Upper  []float64 // bucket upper bounds; +Inf implicit
	Counts []uint64  // per-bucket (non-cumulative); len(Upper)+1
}

// Snapshot copies the histogram's current state. Nil-safe: a nil
// histogram yields an empty snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Upper:  h.upper,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observation in seconds (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0..1) in seconds by walking the
// cumulative bucket counts and interpolating linearly inside the target
// bucket. Empty buckets are skipped, so the estimate always lands in a
// bucket that holds observations: q=0 yields the lower bound of the
// first non-empty bucket, q=1 the upper bound of the last. Ranks that
// fall in the +Inf bucket clamp to the highest finite bound rather than
// extrapolating. Returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(s.Upper) {
			// +Inf bucket: clamp to the highest finite bound.
			return s.Upper[len(s.Upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Upper[i-1]
		}
		hi := s.Upper[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac >= 1 {
			// Exact bucket-edge rank: report the bound itself rather
			// than accumulating float error through interpolation.
			return hi
		}
		return lo + (hi-lo)*frac
	}
	return s.Upper[len(s.Upper)-1]
}
