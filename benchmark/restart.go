package main

import (
	"fmt"
	"sort"
	"time"

	"grub/internal/core"
	"grub/internal/repl"
	"grub/internal/server"
)

// Follower settings are fixed and printed: catch-up speed depends on them.
const (
	followerPoll       = 2 * time.Millisecond
	followerRefresh    = 10 * time.Millisecond
	followerMaxBatches = 128
	convergeTimeout    = 120 * time.Second
)

// follower is a cold replica: a fresh in-memory gateway tailing a leader.
type follower struct {
	gw *server.Gateway
	f  *repl.Follower
}

// startFollower brings up an empty replica of the leader at url.
func startFollower(url string) *follower {
	gw := server.NewGateway()
	f := repl.NewFollower(repl.Options{
		Leader: url, HTTP: keepAlive(),
		Poll: followerPoll, Refresh: followerRefresh, MaxBatches: followerMaxBatches,
	}, gw.ReplTarget())
	f.Start()
	return &follower{gw: gw, f: f}
}

func (fl *follower) close() {
	fl.f.Close()
	fl.gw.Kill()
}

// runRestart is the restart_catchup workload. Set-up writes a history into
// a durable gateway that never snapshots; every cycle then kills it,
// reopens it on the same directory (full log replay) and lets a cold
// follower catch up over loopback until converged. One cycle is one
// request and restores the logged ops twice; a segment is
// RestartCyclesPerSegment cycles in a row.
func runRestart(e *env, tr *tracer) (*report, error) {
	z := e.z
	segments := e.segments(tr)
	perSeg := z.RestartCyclesPerSegment
	history := z.RestartHistoryBatchesPerSec * e.seconds / (z.Segments * perSeg)
	cfg := server.FeedConfig{ID: "h", Policy: "memoryless", K: 2, EpochOps: z.RestartEpochOps, Shards: z.RestartShards}
	feed := genYCSBA(cfg, z.RestartRecords, 32, z.RestartBatchOps, history, clientSeed(e.seed, 0))
	feeds := []feedInputs{feed}
	e.inputsReady()

	// ReplRetain covers the whole history, so a cold follower ships the
	// log; snapshot bootstrap is a different path (repl.snapshot_ms).
	opts := server.GatewayOptions{SnapshotEvery: 0, SyncWrites: false, ReplRetain: len(feed.preload) + len(feed.batches) + 16}
	var st *httpStack
	var digest *resultDigest
	build := func() (err error) {
		if opts.DataDir, err = e.mkdir("restart-"); err != nil {
			return err
		}
		if st, err = newHTTPStack(opts, feeds); err != nil {
			return err
		}
		gw := st.node.gw
		digest = newResultDigest()
		return doAll(func(ops []core.Op) ([]core.OpResult, error) {
			res, err := gw.Do(feed.cfg.ID, ops)
			digest.add(res)
			return res, err
		}, feed.batches)
	}
	setup, err := e.repeatSetup(tr, build, func() { st.close() })
	if err != nil {
		return nil, err
	}
	leader := st.node
	var fl *follower
	defer func() {
		if fl != nil {
			fl.close()
		}
		leader.stop()
		leader.gw.Kill()
	}()
	want, err := gatewayState(leader.gw, feed.cfg.ID)
	if err != nil {
		return nil, err
	}
	// The preload's share, for Gas per history op.
	preRef, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range feed.preload {
		preRef.apply(b, false)
	}

	rep := newReport()
	res := loopResult{}
	var before counters
	var recoverRates, catchupRates, cycles []float64
	var segTimed time.Duration
	// Cycle 0 warms up; measured cycle cyc belongs to segment 1+(cyc-1)/perSeg.
	for cyc := 0; cyc <= segments*perSeg; cyc++ {
		// Crash the leader and drop the previous follower, untimed.
		if fl != nil {
			fl.close()
			fl = nil
		}
		leader.stop()
		leader.gw.Kill()
		if cyc == 1 {
			before = readCounters()
		}

		t0 := time.Now()
		gw, err := server.NewGatewayWithOptions(opts)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		t1 := time.Now()
		if leader, err = serve(gw, server.HandlerConfig{}); err != nil {
			gw.Kill()
			return nil, err
		}
		fl = startFollower(leader.url)
		cerr := fl.f.WaitConverged(convergeTimeout)
		t2 := time.Now()

		ok := cerr == nil
		if cerr != nil {
			rep.note("cycle %d: %v", cyc, cerr)
		}
		// Oracle: recovery must land exactly where the leader was killed,
		// and the follower's anchors must equal the leader's.
		got, err := gatewayState(gw, feed.cfg.ID)
		if err != nil {
			return nil, err
		}
		if d := want.diff(got); d != "" {
			rep.mismatch("cycle %d: recovered state departs from pre-kill state: %s", cyc, d)
			ok = false
		}
		if ok {
			fgot, err := gatewayState(fl.gw, feed.cfg.ID)
			if err != nil {
				return nil, err
			}
			if d := want.diff(fgot); d != "" {
				rep.mismatch("cycle %d: follower departs from leader: %s", cyc, d)
				ok = false
			}
		}

		ops := 2 * want.ops
		timed := t2.Sub(t0)
		res.attempted++
		if !ok {
			res.failed++
		}
		if cyc == 0 {
			res.warm = segment{latMs: []float64{ms(timed)}, ops: ops, rate: float64(ops) / timed.Seconds()}
			continue
		}
		seg := 1 + (cyc-1)/perSeg
		if len(res.segs) < seg {
			res.segs = append(res.segs, segment{})
			segTimed = 0
		}
		sg := &res.segs[seg-1]
		segTimed += timed
		sg.latMs = append(sg.latMs, ms(timed))
		sg.ops += ops
		sg.rate = float64(sg.ops) / segTimed.Seconds()
		res.ops += ops
		cycles = append(cycles, ms(timed))
		recoverRates = append(recoverRates, float64(want.ops)/t1.Sub(t0).Seconds())
		catchupRates = append(catchupRates, float64(want.ops)/t2.Sub(t1).Seconds())
		if tr != nil && tracedSegment(seg) {
			top := tr.add("restart cycle", "server", cyc, -1, t0, t2)
			tr.add("server.NewGatewayWithOptions", "shard", cyc, top, t0, t1)
			tr.add("repl.Follower.WaitConverged", "repl", cyc, top, t1, t2)
		}
	}
	res.setCounters(before, readCounters())
	rep.addLoop(res)
	e.mark("window")
	heap := liveHeapMB()
	final, err := gatewayState(leader.gw, feed.cfg.ID)
	if err != nil {
		return nil, err
	}
	fl.close()
	fl = nil
	leader.stop()
	leader.gw.Kill()

	ratio := 0.0
	if tr == nil {
		// The history is short, so all of it is the Gas sample.
		if ratio, err = feedsOracle(rep, []finalState{final}, feeds, []int{len(feed.batches)}, []*resultDigest{digest}); err != nil {
			return nil, err
		}
	}

	sum, err := summarize(res.segs, perSeg)
	if err != nil {
		return nil, err
	}
	rep.timing(sum, res)
	// A few cycles per segment support no percentile, and a percentile of
	// all the cycles moves with every slow spell of the host. The tail
	// reported as req_p99_ms is the median over segments of the segment's
	// slowest cycle (what summarize's nearest-rank p99 of so few samples
	// is), which spells shorter than half the window cannot move;
	// req_p50_ms is the median cycle.
	rep.set("req_p50_ms", median(cycles))
	sort.Float64s(cycles)
	rep.set("setup_s", setup)
	rep.set("gas_per_op", float64(want.gas-preRef.feedGas())/float64(want.ops-preRef.ops))
	rep.set("gas_vs_best_static", ratio)
	rep.set("heap_live_mb", heap)
	rep.note("restart_catchup: %d cycles (%d per segment) of kill, reopen (replay %d logged ops), cold follower to convergence; %d shards, %d records, history %d batches of %d; SnapshotEvery=0, follower poll %v refresh %v page %d",
		len(cycles), perSeg, want.ops, z.RestartShards, z.RestartRecords, history, z.RestartBatchOps, followerPoll, followerRefresh, followerMaxBatches)
	rep.note("recovery_ops_per_s %.0f (median), catchup_ops_per_s %.0f (median); one request = one cycle, req_p99_ms = median over segments of the segment's slowest cycle (p90 of all cycles %.0f ms, slowest %.0f ms)",
		median(recoverRates), median(catchupRates), percentile(cycles, 0.90), cycles[len(cycles)-1])

	if tr != nil {
		in := ladderInput{cfg: cfg, preload: flatten(feed.preload), batches: capBatches(feed.batches, z.LadderBatchCap)}
		in.cfg.ID = "ladder"
		in.fillReads(z, ycsbKeys(z.RestartRecords), z.ReadRangeKeys-1)
		if err := runLadder(e, in, tr, rep, res); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
