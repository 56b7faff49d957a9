package main

import (
	"fmt"
	"math"
	"runtime"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/server"
	"grub/internal/sim"
	"grub/internal/workload"
	"grub/internal/workload/ycsb"
)

// btcHeaderBytes is the size of a Bitcoin block header, the BtcRelay value.
const btcHeaderBytes = 80

// feedKind builds one contender's policy and options; a fresh pair per feed
// because policies are stateful.
type feedKind func() (policy.Policy, core.Options)

// paperTrace is one seeded paper trace with its three contenders. ops holds
// exactly slices*sliceOps operations.
type paperTrace struct {
	name           string
	grub, bl1, bl2 feedKind
	preload, ops   []workload.Op
	// ladderCfg is the gateway config equivalent to grub, for the traced
	// run's depth ladder (set on the trace the ladder replays).
	ladderCfg server.FeedConfig
}

func never(epoch int) feedKind {
	return func() (policy.Policy, core.Options) { return policy.Never{}, core.Options{EpochOps: epoch} }
}

func always(epoch int) feedKind {
	return func() (policy.Policy, core.Options) {
		return policy.Always{}, core.Options{EpochOps: epoch, NoADS: true}
	}
}

func memoryless(k, epoch int, deferPromotions bool) feedKind {
	return func() (policy.Policy, core.Options) {
		return policy.NewMemoryless(k), core.Options{EpochOps: epoch, DeferPromotions: deferPromotions}
	}
}

// tightFit generates one segment's trace with gen(n, seed), where the op
// count grows in proportion to n, and cuts it to exactly want ops. n0 must
// yield at least want ops; a second generation sized from the first's yield
// keeps the cut to about a percent of the trace, so every segment carries
// the generator's exact-frequency burst layout almost whole.
func tightFit(gen func(n int, seed uint64) []workload.Op, n0, want int, seed uint64) []workload.Op {
	first := gen(n0, seed)
	n1 := n0*want/len(first)*101/100 + 8
	if second := gen(n1, seed); len(second) >= want {
		return second[:want]
	}
	return first[:want]
}

// recordingSeed lays out the two regenerated recordings. The paper's
// ethPriceOracle and BtcRelay traces are one fixed measurement each, so the
// run's -seed does not reshuffle them: it drives the synthetic YCSB trace.
// (GRuB's Gas on BtcRelay depends on which blocks a shuffle happens to
// promote — they fix the treap spine every later tip read walks — so a
// reshuffle per seed moves its Gas by +-10% and says nothing about the code.)
const recordingSeed = 2020

// genPaper builds the three traces, each of exactly segs*perSeg 16-op
// slices, generated segment by segment so that segments carry equal work
// and any whole number of them is a complete mix. Configurations follow the
// repo's own paper experiments: Figure 5 (ethPriceOracle over 4096 assets,
// 32-op epochs, K=1), Figure 6 (BtcRelay, 4-op epochs, K=2, BL2 unbatched)
// and Figure 9 (YCSB, one A,B,A,B cycle per segment, 4-op epochs, K=2,
// promotions at epoch boundaries).
func genPaper(z sizes, segs, perSeg int, seed uint64) []*paperTrace {
	segOps := perSeg * z.PaperSliceOps

	eth := &paperTrace{name: "eth", grub: memoryless(1, 32, false), bl1: never(32), bl2: always(32)}
	for i := 0; i < z.PaperEthAssets; i++ {
		eth.preload = append(eth.preload, workload.Write(workload.AssetKey(i), make([]byte, 32)))
	}
	ethGen := func(events int, s uint64) []workload.Op {
		return workload.EthPriceOracleMultiAsset(z.PaperEthAssets, z.PaperEthBatch, events, 32, s)
	}
	btc := &paperTrace{name: "btc", grub: memoryless(2, 4, false), bl1: never(4), bl2: always(1)}
	btcGen := func(writes int, s uint64) []workload.Op { return workload.BtcRelay(writes, btcHeaderBytes, 6, s) }
	for i := 0; i < segs; i++ {
		segSeed := recordingSeed + uint64(i)*104729
		// Every write event carries PaperEthBatch writes, and every
		// BtcRelay write at least itself: both n0 cover segOps.
		eth.ops = append(eth.ops, tightFit(ethGen, (segOps+z.PaperEthBatch-1)/z.PaperEthBatch, segOps, segSeed)...)
		// BtcRelay is append-only and numbers its blocks from 0, so each
		// segment's chain gets its own key prefix.
		for _, op := range tightFit(btcGen, segOps, segOps, segSeed) {
			op.Key = fmt.Sprintf("s%02d-%s", i, op.Key)
			btc.ops = append(btc.ops, op)
		}
	}

	mix := &paperTrace{name: "ycsb", grub: memoryless(2, 4, true), bl1: never(4), bl2: always(32),
		ladderCfg: server.FeedConfig{ID: "ladder", Policy: "memoryless", K: 2, EpochOps: 4, DeferPromotions: true}}
	phase := segOps / 4
	var phases []ycsb.Phase
	for i := 0; i < segs; i++ {
		phases = append(phases,
			ycsb.Phase{Spec: ycsb.WorkloadA, Ops: phase}, ycsb.Phase{Spec: ycsb.WorkloadB, Ops: phase},
			ycsb.Phase{Spec: ycsb.WorkloadA, Ops: phase}, ycsb.Phase{Spec: ycsb.WorkloadB, Ops: segOps - 3*phase})
	}
	pre, phaseOps := ycsb.Mixed(phases, z.PaperYcsbRecords, 32, seed)
	mix.preload = pre
	for _, p := range phaseOps {
		mix.ops = append(mix.ops, p...)
	}
	return []*paperTrace{eth, btc, mix}
}

// paperChain is the chain every paper experiment in the repo runs on: fast
// mining (timing is irrelevant to Gas) with the Table 2 schedule.
func paperChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 2}, gas.DefaultSchedule())
}

// newPaperFeed builds a contender's feed and preloads it without measuring
// (one staged epoch), returning the Gas spent so far.
func newPaperFeed(kind feedKind, preload []workload.Op) (*core.Feed, gas.Gas) {
	p, opts := kind()
	f := core.NewFeed(paperChain(), p, opts)
	if len(preload) > 0 {
		for _, op := range preload {
			f.DO.StageWrite(core.KV{Key: op.Key, Value: op.Value})
		}
		f.FlushEpoch()
	}
	return f, f.FeedGas()
}

// replayGas runs ops through a fresh contender and returns the feed Gas
// spent by the last op, net of genesis and preload.
func replayGas(kind feedKind, t *paperTrace, ops []workload.Op) (gas.Gas, error) {
	f, base := newPaperFeed(kind, t.preload)
	if err := f.Process(ops); err != nil {
		return 0, fmt.Errorf("%s: %w", t.name, err)
	}
	return f.FeedGas() - base, nil
}

// gasTotals is one trace's Gas under the three contenders.
type gasTotals struct {
	Grub uint64 `json:"grub"`
	BL1  uint64 `json:"bl1"`
	BL2  uint64 `json:"bl2"`
}

// bestStatic is the cheaper static placement's Gas.
func (g gasTotals) bestStatic() uint64 { return min(g.BL1, g.BL2) }

// geomean returns the geometric mean of positive ratios.
func geomean(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// runPaper is the paper_replay workload: in-process, single goroutine, no
// serving layer at all.
func runPaper(e *env, tr *tracer) (*report, error) {
	z := e.z
	segments := e.segments(tr)
	// Requests interleave the three traces, so a segment holds a multiple
	// of three slices and the same share of each trace.
	perTraceSeg := z.perSegment(z.PaperSlicesPerTracePerSec, e.seconds)
	perSegment := 3 * perTraceSeg
	slices := (1 + segments) * perTraceSeg
	traces := genPaper(z, 1+segments, perTraceSeg, e.seed)
	// The Gas sample: the leading segments every contender replays.
	sampleSlices := min(z.GasSegments, 1+segments) * perTraceSeg
	e.inputsReady()

	type stack struct {
		feeds []*core.Feed
		base  []gas.Gas
	}
	build := func() stack {
		var s stack
		for _, t := range traces {
			f, base := newPaperFeed(t.grub, t.preload)
			s.feeds, s.base = append(s.feeds, f), append(s.base, base)
		}
		return s
	}
	var st stack
	setup, err := e.repeatSetup(tr, func() error { st = build(); return nil }, func() { st = stack{} })
	if err != nil {
		return nil, err
	}

	rep := newReport()
	warmGas := make([]gas.Gas, len(traces))
	sampleGas := make([]gas.Gas, len(traces))
	res := runLoop(loopSpec{
		clients: 1, segments: segments, perSegment: perSegment,
		tr: tr, spanName: "core.Feed.Process", spanLayer: "core",
		do: func(_, i int) (int, bool) {
			ti, si := i%3, i/3
			t := traces[ti]
			ops := t.ops[si*z.PaperSliceOps : (si+1)*z.PaperSliceOps]
			err := st.feeds[ti].Process(ops)
			if si == perTraceSeg-1 {
				// Last warm-up slice of this trace: remember the
				// Gas for the determinism replay below.
				warmGas[ti] = st.feeds[ti].FeedGas()
			}
			if si == sampleSlices-1 {
				sampleGas[ti] = st.feeds[ti].FeedGas() - st.base[ti]
			}
			return len(ops), err == nil
		},
	})
	rep.addLoop(res)
	e.mark("window")
	heap := liveHeapMB()

	totals := make(map[string]gasTotals)
	var gasSum gas.Gas
	for i, t := range traces {
		st.feeds[i].FlushEpoch()
		gasSum += st.feeds[i].FeedGas() - st.base[i]
		totals[t.name] = gasTotals{Grub: uint64(sampleGas[i])}
	}
	opsTotal := 3 * slices * z.PaperSliceOps

	// Oracle 1, every seed: replaying the warm-up slices on fresh feeds
	// must land on exactly the Gas the timed run passed through.
	for i, t := range traces {
		f, _ := newPaperFeed(t.grub, t.preload)
		if err := f.Process(t.ops[:perTraceSeg*z.PaperSliceOps]); err != nil {
			return nil, err
		}
		if f.FeedGas() != warmGas[i] {
			rep.mismatch("%s: warm-up replay Gas %d != timed run's %d (non-deterministic)", t.name, f.FeedGas(), warmGas[i])
		}
	}

	ratio := 0.0
	if tr == nil {
		// BL1 and BL2 replay the Gas sample untimed, two at a time.
		bl := make([][2]gas.Gas, len(traces))
		var jobs []func() error
		for i, t := range traces {
			for k, kind := range []feedKind{t.bl1, t.bl2} {
				jobs = append(jobs, func() (err error) {
					bl[i][k], err = replayGas(kind, t, t.ops[:sampleSlices*z.PaperSliceOps])
					return err
				})
			}
		}
		if err := parallel(jobs); err != nil {
			return nil, err
		}
		var ratios []float64
		for i, t := range traces {
			g := totals[t.name]
			g.BL1, g.BL2 = uint64(bl[i][0]), uint64(bl[i][1])
			totals[t.name] = g
			r := float64(g.Grub) / float64(g.bestStatic())
			ratios = append(ratios, r)
			rep.note("gas %-5s first %d of %d slices: GRuB %d  BL1 %d  BL2 %d  GRuB/min(BL1,BL2) %.6f", t.name, sampleSlices, slices, g.Grub, g.BL1, g.BL2, r)
		}
		ratio = geomean(ratios)
		// Oracle 2, seed 1 at a recorded size: exact golden totals.
		if err := checkGolden(e, totals, rep); err != nil {
			return nil, err
		}
	}

	sum, err := summarize(res.segs, z.MinSegmentRequests)
	if err != nil {
		return nil, err
	}
	rep.timing(sum, res)
	rep.set("setup_s", setup)
	rep.set("gas_per_op", float64(gasSum)/float64(opsTotal))
	rep.set("gas_vs_best_static", ratio)
	rep.set("heap_live_mb", heap)
	rep.note("paper_replay: 3 traces x %d slices of %d ops, 1 goroutine, in process", slices, z.PaperSliceOps)
	e.paperTotals = totals

	if tr != nil {
		in := paperLadderInput(z, traces[2], perTraceSeg)
		if err := runLadder(e, in, tr, rep, res); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// paperLadderInput hands the ladder the YCSB trace's first measured segment
// as 16-op batches over its own preload.
func paperLadderInput(z sizes, t *paperTrace, perTraceSeg int) ladderInput {
	in := ladderInput{cfg: t.ladderCfg, preload: core.FromWorkload(t.preload)}
	ops := core.FromWorkload(t.ops)
	for s := perTraceSeg; s < 2*perTraceSeg && len(in.batches) < z.LadderBatchCap; s++ {
		in.batches = append(in.batches, ops[s*z.PaperSliceOps:(s+1)*z.PaperSliceOps])
	}
	in.fillReads(z, ycsbKeys(z.PaperYcsbRecords), z.ReadRangeKeys-1)
	return in
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
