package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile
// (choosing-metrics guide: "the highest percentile that has at least ten
// samples beyond it"). A segment therefore needs 1000 samples for a p99.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), q) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// nearestRank is the 1-based nearest-rank position ceil(q*n) of the
// q-quantile among n sorted samples (the epsilon absorbs 0.99*1000 landing a
// hair above 990).
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank > n {
		rank = n
	}
	return rank
}

// samplesBeyond counts the samples above the nearest-rank q-quantile
// position of an n-sample set.
func samplesBeyond(n int, q float64) int { return n - nearestRank(n, q) }

// supportsQuantile reports whether n samples leave at least tailSamples
// beyond the q-quantile.
func supportsQuantile(n int, q float64) bool { return samplesBeyond(n, q) >= tailSamples }

// median returns the middle value (mean of the middle two for even n).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// segment is one equal-work slice of a timed window: every request's
// latency, the feed ops those requests carried and the slice's wall time.
// With several clients, a segment merges each client's i-th slice.
type segment struct {
	latMs []float64
	ops   int
	// rate is the sum of the clients' ops/s over their own slice of this
	// segment (clients run concurrently, so rates add).
	rate float64
}

// segmentSummary is the end-to-end timing a run reports: medians over the
// measured segments of each segment's own rate, median and p99.
type segmentSummary struct {
	opsPerS, p50Ms, p99Ms float64
	// samples is the total request count over all segments; minSegment the
	// smallest segment's count.
	samples, minSegment int
	// drift is the last segment's rate over the first's.
	drift float64
	// pooledP99Ms and p999Ms are whole-window percentiles, diagnostics that
	// are never gated.
	pooledP99Ms, p999Ms float64
	// rates, p50s and p99s are the per-segment values behind the medians.
	rates, p50s, p99s []float64
}

// summarize folds measured segments into the reported numbers. It fails if
// a segment has fewer than minRequests requests or cannot support a p99.
func summarize(segs []segment, minRequests int) (segmentSummary, error) {
	if len(segs) == 0 {
		return segmentSummary{}, fmt.Errorf("no measured segments")
	}
	var rates, p50s, p99s, all []float64
	sum := segmentSummary{minSegment: len(segs[0].latMs)}
	for i, sg := range segs {
		n := len(sg.latMs)
		if n < minRequests {
			return segmentSummary{}, fmt.Errorf("segment %d has %d timed requests, need >= %d", i, n, minRequests)
		}
		if minRequests >= 1000 && !supportsQuantile(n, 0.99) {
			return segmentSummary{}, fmt.Errorf("segment %d: %d samples leave fewer than %d beyond p99", i, n, tailSamples)
		}
		s := append([]float64(nil), sg.latMs...)
		sort.Float64s(s)
		rates = append(rates, sg.rate)
		p50s = append(p50s, percentile(s, 0.50))
		p99s = append(p99s, percentile(s, 0.99))
		all = append(all, s...)
		sum.samples += n
		if n < sum.minSegment {
			sum.minSegment = n
		}
	}
	sort.Float64s(all)
	sum.opsPerS, sum.p50Ms, sum.p99Ms = median(rates), median(p50s), median(p99s)
	sum.rates, sum.p50s, sum.p99s = rates, p50s, p99s
	sum.pooledP99Ms, sum.p999Ms = percentile(all, 0.99), percentile(all, 0.999)
	sum.drift = rates[len(rates)-1] / rates[0]
	return sum, nil
}

// rung is one level of the depth ladder: the summed wall time of its spans
// over the same requests.
type rung struct {
	name  string
	total time.Duration
}

// selfTimes returns each rung's self time: its total minus the rung below
// (rungs ordered bottom-up; the bottom rung's self time is its total).
func selfTimes(rungs []rung) []time.Duration {
	out := make([]time.Duration, len(rungs))
	for i, r := range rungs {
		out[i] = r.total
		if i > 0 {
			out[i] -= rungs[i-1].total
		}
	}
	return out
}

// perOpUs converts a total duration into microseconds per op.
func perOpUs(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
