package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// span is one traced call: which rung of which layer served request req,
// and the span on the rung above it (-1 for a top rung).
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: concurrent clients record into their own tracer and the
// caller merges them.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its index.
func (t *tracer) add(name, layer string, req, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Req: req, Parent: parent,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// loopSpec describes one closed-loop timed window: clients goroutines each
// issue (1+segments)*perSegment requests back to back, the first perSegment
// being the discarded warm-up.
type loopSpec struct {
	clients, segments, perSegment int
	// do issues request i of a client and reports the feed ops it carried
	// and whether it succeeded.
	do func(client, i int) (ops int, ok bool)
	// spanName/spanLayer label the top-rung span recorded per request when
	// tr is non-nil; only odd measured segments are traced, so the even
	// ones give the untraced rate of the same run.
	tr                  *tracer
	spanName, spanLayer string
}

// loopResult is what a timed window measured.
type loopResult struct {
	warm      segment
	segs      []segment
	window    time.Duration
	attempted int
	failed    int
	ops       int // feed ops in the measured window
	// Go runtime deltas over the measured window.
	mallocs, allocBytes, gcPauseNs uint64
	gcCycles                       uint32
	// cpu is the process's user+system CPU time over the measured window
	// (a diagnostic: it separates work from waiting).
	cpu time.Duration
}

// counters is a reading of the clocks and Go runtime counters that bracket
// a measured window.
type counters struct {
	at  time.Time
	cpu time.Duration // process user+system CPU time
	mem runtime.MemStats
}

func readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.at = time.Now()
	return c
}

// setCounters stores what the window between two readings consumed.
func (r *loopResult) setCounters(before, after counters) {
	r.window, r.cpu = after.at.Sub(before.at), after.cpu-before.cpu
	r.mallocs = after.mem.Mallocs - before.mem.Mallocs
	r.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	r.gcPauseNs = after.mem.PauseTotalNs - before.mem.PauseTotalNs
	r.gcCycles = after.mem.NumGC - before.mem.NumGC
}

func tracedSegment(seg int) bool { return seg%2 == 1 }

// runLoop drives the window. Every client finishes its warm-up before any
// starts measuring, so the runtime counters bracket exactly the measured
// work.
func runLoop(spec loopSpec) loopResult {
	type clientSeg struct {
		lat   []float64
		ops   int
		dur   time.Duration
		fails int
	}
	per := make([][]clientSeg, spec.clients)
	tracers := make([]*tracer, spec.clients)
	var warmed, done sync.WaitGroup
	warmed.Add(spec.clients)
	done.Add(spec.clients)
	release := make(chan struct{})
	for c := 0; c < spec.clients; c++ {
		per[c] = make([]clientSeg, 1+spec.segments)
		if spec.tr != nil {
			tracers[c] = &tracer{t0: spec.tr.t0}
		}
		go func(c int) {
			defer done.Done()
			for s := 0; s <= spec.segments; s++ {
				cs := &per[c][s]
				cs.lat = make([]float64, 0, spec.perSegment)
				traced := tracers[c] != nil && s > 0 && tracedSegment(s)
				segStart := time.Now()
				for j := 0; j < spec.perSegment; j++ {
					i := s*spec.perSegment + j
					t0 := time.Now()
					ops, ok := spec.do(c, i)
					t1 := time.Now()
					cs.lat = append(cs.lat, ms(t1.Sub(t0)))
					cs.ops += ops
					if !ok {
						cs.fails++
					}
					if traced {
						tracers[c].add(spec.spanName, spec.spanLayer, c*(1+spec.segments)*spec.perSegment+i, -1, t0, t1)
					}
				}
				cs.dur = time.Since(segStart)
				if s == 0 {
					warmed.Done()
					<-release
				}
			}
		}(c)
	}
	warmed.Wait()
	before := readCounters()
	close(release)
	done.Wait()
	var res loopResult
	res.setCounters(before, readCounters())

	merge := func(s int) segment {
		var sg segment
		for c := range per {
			cs := per[c][s]
			sg.latMs = append(sg.latMs, cs.lat...)
			sg.ops += cs.ops
			sg.rate += float64(cs.ops) / cs.dur.Seconds()
			res.attempted += len(cs.lat)
			res.failed += cs.fails
		}
		return sg
	}
	res.warm = merge(0)
	for s := 1; s <= spec.segments; s++ {
		sg := merge(s)
		res.ops += sg.ops
		res.segs = append(res.segs, sg)
	}
	for _, t := range tracers {
		if t != nil {
			spec.tr.spans = append(spec.tr.spans, t.spans...)
		}
	}
	return res
}

// traceOverhead compares the traced (odd) and untraced (even) measured
// segments of one run: 1 - traced rate / untraced rate.
func traceOverhead(segs []segment) (float64, error) {
	var traced, plain []float64
	for i, sg := range segs {
		if tracedSegment(i + 1) {
			traced = append(traced, sg.rate)
		} else {
			plain = append(plain, sg.rate)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0, fmt.Errorf("trace overhead needs both traced and untraced segments, have %d and %d", len(traced), len(plain))
	}
	return 1 - median(traced)/median(plain), nil
}
