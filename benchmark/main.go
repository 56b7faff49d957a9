// Command benchmark is the repo's yardstick: four fixed GRuB feed workloads,
// each reporting the same end-to-end metrics (BENCHMARK.json) from an
// untraced run and every per-layer metric from a traced run, with a
// correctness oracle on every run. See README.md in this directory.
//
//	go run ./benchmark -workload write_http_durable -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// env is one run's context.
type env struct {
	z       sizes
	smoke   bool
	seed    uint64
	seconds int
	// dir is the benchmark's own directory, relative to the working
	// directory. tmp is this run's scratch directory (data dirs live under
	// it); it is inside the checkout because the benchmark may write nowhere
	// else.
	dir, tmp string
	out      io.Writer

	start, lastMark time.Time
	// phases is where the run's wall time went, for the closing diagnostic.
	phases []string
	// paperTotals is paper_replay's per-trace Gas, kept for the golden
	// test and -golden.
	paperTotals map[string]gasTotals
}

// segments is the measured segment count: the full table value untraced,
// the short traced/untraced alternation when tracing.
func (e *env) segments(tr *tracer) int {
	if tr != nil {
		return e.z.TraceSegments
	}
	return e.z.Segments
}

// inputsReady marks the end of seeded input generation, which is harness
// work and belongs to neither set-up nor the timed window.
func (e *env) inputsReady() { e.mark("inputs") }

// mark closes a phase of the run: everything since the previous mark.
func (e *env) mark(phase string) {
	now := time.Now()
	e.phases = append(e.phases, fmt.Sprintf("%s %.2fs", phase, now.Sub(e.lastMark).Seconds()))
	e.lastMark = now
}

// repeatSetup runs build SetupRepeats times (once when tracing), tearing
// down all but the last, and returns the median set-up time in seconds.
func (e *env) repeatSetup(tr *tracer, build func() error, teardown func()) (float64, error) {
	n := e.z.SetupRepeats
	if tr != nil {
		n = 1
	}
	var took []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	e.mark("set-up")
	return median(took), nil
}

// mkdir makes a fresh directory under the run's scratch root.
func (e *env) mkdir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// report collects a run's results. note and mismatch may be called from
// the oracle's parallel replays.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	mismatches        []string
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// mismatch records an oracle failure: it fails the run and counts as one
// failed request.
func (r *report) mismatch(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, a...))
	r.failed++
}

func (r *report) addLoop(res loopResult) {
	r.attempted += res.attempted
	r.failed += res.failed
}

// timing stores the segment-median timing metrics and the runtime counters
// of a timed window.
func (r *report) timing(sum segmentSummary, res loopResult) {
	r.set("ops_per_s", sum.opsPerS)
	r.set("req_p50_ms", sum.p50Ms)
	r.set("req_p99_ms", sum.p99Ms)
	r.set("allocs_per_op", float64(res.mallocs)/float64(res.ops))
	r.set("runtime.gc_cycles", float64(res.gcCycles))
	r.set("runtime.gc_pause_ms", float64(res.gcPauseNs)/1e6)
	r.set("runtime.alloc_bytes_per_op", float64(res.allocBytes)/float64(res.ops))
	r.set("runtime.ops_per_s_drift", sum.drift)
	r.note("per-segment ops/s %s", fmtList(sum.rates, "%.0f"))
	r.note("per-segment p50 ms %s", fmtList(sum.p50s, "%.3f"))
	r.note("per-segment p99 ms %s", fmtList(sum.p99s, "%.3f"))
	r.note("window %.2fs, %d requests (%d per segment at least), %d feed ops, whole-run %.0f ops/s, p99 %.3f ms, p99.9 %.3f ms, process CPU %.1f us/op (diagnostics)",
		res.window.Seconds(), sum.samples, sum.minSegment, res.ops, float64(res.ops)/res.window.Seconds(), sum.pooledP99Ms, sum.p999Ms, perOpUs(res.cpu, res.ops))
}

func fmtList(vals []float64, format string) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

func fatal(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(code)
}

var workloads = map[string]func(*env, *tracer) (*report, error){
	"write_http_durable": runWrite,
	"verified_read_http": runRead,
	"paper_replay":       runPaper,
	"restart_catchup":    runRestart,
}

// benchDir is the benchmark's directory in a checkout; outDir, under it, is
// where traces, scratch data and self-check results go (gitignored).
const (
	benchDir = "benchmark"
	outDir   = benchDir + "/out"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: write_http_durable, verified_read_http, paper_replay, restart_catchup")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 15, "nominal length of the measured window; scales the fixed op counts")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny sizes (about a second per workload), for tests")
		selfcheck = flag.Bool("selfcheck", false, "run two full untraced sets back to back and compare them against the bounds")
		golden    = flag.Bool("golden", false, "with -workload paper_replay: print the run's Gas totals as a golden_gas.json entry")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected arguments %v", flag.Args())
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fatal(2, "run from the root of the checkout (go run ./benchmark): %v", err)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(2, "unknown workload %q", *workload)
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(2, "-seconds %d out of range [1, 60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(2, "%v", err)
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatal(2, "%v", err)
	}
	e := &env{dir: benchDir, z: fullSizes, smoke: *smoke, seed: *seed, seconds: *seconds, tmp: tmp, out: os.Stdout, start: time.Now()}
	e.lastMark = e.start
	if *smoke {
		e.z = smokeSizes
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	fmt.Fprintf(e.out, "workload %s seed %d seconds %d trace %d smoke %v | GOMAXPROCS %d, %d closed-loop clients at most, SyncWrites=false\n",
		*workload, *seed, *seconds, *trace, *smoke, runtime.GOMAXPROCS(0), clients)

	rep, err := run(e, tr)
	os.RemoveAll(tmp)
	if err != nil {
		// A run that cannot vouch for its numbers prints no result.
		fatal(2, "%s: %v", *workload, err)
	}
	if tr != nil {
		if err := writeTrace(*workload, tr); err != nil {
			fatal(2, "%v", err)
		}
	}
	if *golden && e.paperTotals != nil {
		b, _ := json.MarshalIndent(e.paperTotals, "", "  ")
		fmt.Fprintf(e.out, "golden %s\n", b)
	}
	os.Exit(emit(e, rep, tr != nil))
}

// writeTrace dumps the run's spans next to the other run outputs.
func writeTrace(workload string, tr *tracer) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name with its unit, then the result line. The
// traced run reports the per-layer metrics, the untraced run the end-to-end
// ones; a metric the run did not produce is an error, not a placeholder.
func emit(e *env, rep *report, traced bool) int {
	for _, n := range rep.notes {
		fmt.Fprintln(e.out, n)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	line := resultLine{Correct: len(rep.mismatches) == 0 && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue)}
	var missing []string
	for _, m := range specs {
		v, ok := rep.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(e.out, "%-34s %18.6f %s\n", m.Name, v, m.Unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fatal(2, "run produced no value for %v", missing)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(e.out, "ORACLE MISMATCH: %s\n", m)
	}
	e.mark("rest")
	fmt.Fprintf(e.out, "%s, total %.2fs; failed_frac %g (%d of %d)\n",
		strings.Join(e.phases, ", "), time.Since(e.start).Seconds(), float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	if line.Attempted < 1 {
		fatal(2, "no request was attempted")
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Fprintln(e.out, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
