// Package bench implements the paper's evaluation: one runner per table and
// figure. Each runner regenerates the workload, drives it through GRuB and
// the baselines on the simulated chain, and prints the same rows or series
// the paper reports. The runners are deterministic Gas computations; serving
// performance is measured by the repo's benchmark (go run ./benchmark).
//
// cmd/grubbench exposes the registry on the command line; the root-level
// bench_test.go runs every experiment as a testing.B sub-benchmark.
package bench

import (
	"fmt"
	"io"
	"sort"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
	"grub/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// W receives the experiment's report.
	W io.Writer
	// Scale multiplies workload sizes; 1.0 is the paper's scale and
	// smaller values produce faster approximate runs. Runners clamp to
	// sensible minima.
	Scale float64
	// Seed makes every synthetic trace deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.W == nil {
		c.W = io.Discard
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// scaled returns n scaled by the config, clamped below by min.
func (c Config) scaled(n, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		return min
	}
	return v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key: "fig3", "table1", ...
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment and writes the report.
	Run func(Config) error
}

// Registry lists every experiment, in paper order.
var Registry = []Experiment{
	{ID: "table1", Title: "Distribution of reads-per-write, ethPriceOracle trace", Run: RunTable1},
	{ID: "fig2", Title: "Reads after each write over the 5-day ethPriceOracle trace", Run: RunFig2},
	{ID: "fig3", Title: "Static baselines BL1 vs BL2 with varying read-write ratio", Run: RunFig3},
	{ID: "fig5", Title: "Gas per operation under the ethPriceOracle trace (BL1/BL2/GRuB K=1)", Run: RunFig5},
	{ID: "table3", Title: "Aggregate Gas at the price-feed layer and in SCoinIssuer", Run: RunTable3},
	{ID: "fig6", Title: "Gas per operation under the BtcRelay trace (GRuB K=2)", Run: RunFig6},
	{ID: "table6", Title: "Distribution of reads-per-write, BtcRelay trace", Run: RunTable6},
	{ID: "fig16", Title: "BtcRelay workload analysis (reads per write, read-write delay)", Run: RunFig16},
	{ID: "fig7", Title: "Converged Gas with varying read-write ratios (BL1/BL2/BL3/GRuB)", Run: RunFig7},
	{ID: "fig8a", Title: "Memoryless vs memorizing vs offline-optimal timeline", Run: RunFig8a},
	{ID: "fig8b", Title: "Gas per operation with varying record size", Run: RunFig8b},
	{ID: "fig9", Title: "Mixed YCSB workloads A,B (time series)", Run: RunFig9},
	{ID: "table4", Title: "Aggregate Gas for mixed YCSB workloads (A,B / A,E / A,F)", Run: RunTable4},
	{ID: "fig11", Title: "Gas with varying parameter K (ratios 2/4/8)", Run: RunFig11},
	{ID: "fig12a", Title: "Threshold read-write ratio with varying record size", Run: RunFig12a},
	{ID: "fig12b", Title: "Threshold read-write ratio with varying data size", Run: RunFig12b},
	{ID: "fig13a", Title: "Mixed YCSB workloads A,E (time series)", Run: RunFig13a},
	{ID: "fig13b", Title: "Mixed YCSB workloads A,F (time series)", Run: RunFig13b},
	{ID: "fig14", Title: "Gas under YCSB with varying K", Run: RunFig14},
	{ID: "fig15", Title: "Adaptive-K policies under ethPriceOracle (time series)", Run: RunFig15},
	{ID: "table5", Title: "Aggregated Gas under ethPriceOracle (static vs adaptive K)", Run: RunTable5},
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (see `grubbench -list`)", id)
}

// feedKind names a system under test.
type feedKind struct {
	name string
	mk   func() (policy.Policy, core.Options)
}

// The standard contenders. BL2 is the pure on-chain design (no ADS, reads
// from contract storage). The evaluation-grade BL2 batches writes per epoch
// like every other feed (the paper's Table 3/4 BL2 overheads are only
// explicable with batching); bl2Unbatched is the §2.3 definition where every
// update is sent directly, used by the Figure 3 microbenchmark and the
// latency-sensitive BtcRelay feed.
func bl1Kind(epoch int) feedKind {
	return feedKind{name: "BL1 (no replica)", mk: func() (policy.Policy, core.Options) {
		return policy.Never{}, core.Options{EpochOps: epoch}
	}}
}

func bl2Kind() feedKind {
	return feedKind{name: "BL2 (always replica)", mk: func() (policy.Policy, core.Options) {
		return policy.Always{}, core.Options{EpochOps: 32, NoADS: true}
	}}
}

func bl2Unbatched() feedKind {
	return feedKind{name: "BL2 (always, unbatched)", mk: func() (policy.Policy, core.Options) {
		return policy.Always{}, core.Options{EpochOps: 1, NoADS: true}
	}}
}

func grubKind(k, epoch int) feedKind {
	return feedKind{name: fmt.Sprintf("GRuB memoryless (K=%d)", k), mk: func() (policy.Policy, core.Options) {
		return policy.NewMemoryless(k), core.Options{EpochOps: epoch}
	}}
}

// grubDeferred actuates decisions only at epoch boundaries. With the short
// 4-op epochs of the YCSB experiments this matches the paper's per-epoch
// actuation and filters out promote/demote churn on zipfian write-heavy
// phases; the eager default is what serves the long read bursts of the
// oracle feeds mid-burst.
func grubDeferred(k, epoch int) feedKind {
	return feedKind{name: fmt.Sprintf("GRuB memoryless (K=%d)", k), mk: func() (policy.Policy, core.Options) {
		return policy.NewMemoryless(k), core.Options{EpochOps: epoch, DeferPromotions: true}
	}}
}

// newChain builds the chain every experiment runs on: fast mining (timing is
// irrelevant to Gas) with the Table 2 schedule.
func newChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
}

// runTrace drives a trace through a fresh feed of the given kind and returns
// total feed Gas (excluding genesis) and per-op average.
func runTrace(kind feedKind, trace []workload.Op) (total gas.Gas, perOp float64, err error) {
	p, opts := kind.mk()
	f := core.NewFeed(newChain(), p, opts)
	base := f.FeedGas()
	if err := f.Process(trace); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", kind.name, err)
	}
	f.FlushEpoch()
	total = f.FeedGas() - base
	ops := len(trace)
	if ops == 0 {
		return total, 0, nil
	}
	return total, float64(total) / float64(ops), nil
}

// runSeries is runTrace's time-series variant.
func runSeries(kind feedKind, trace []workload.Op) ([]core.EpochStat, gas.Gas, error) {
	p, opts := kind.mk()
	f := core.NewFeed(newChain(), p, opts)
	base := f.FeedGas()
	series, err := f.ProcessSeries(trace)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", kind.name, err)
	}
	f.FlushEpoch()
	return series, f.FeedGas() - base, nil
}

// printSeries renders aligned epoch series for several contenders.
func printSeries(w io.Writer, xLabel string, names []string, series [][]core.EpochStat, every int) {
	fmt.Fprintf(w, "%-8s", xLabel)
	for _, n := range names {
		fmt.Fprintf(w, " %22s", n)
	}
	fmt.Fprintln(w)
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if every < 1 {
		every = 1
	}
	for i := 0; i < maxLen; i += every {
		fmt.Fprintf(w, "%-8d", i+1)
		for _, s := range series {
			if i < len(s) {
				fmt.Fprintf(w, " %22.0f", s[i].GasPerOp())
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// histKeys returns sorted histogram keys.
func histKeys(h map[int]int) []int {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
