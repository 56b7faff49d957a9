package main

import (
	"fmt"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/server"
	"grub/internal/workload/ycsb"
)

// feedInputs is one client's seeded request stream for a batch workload.
type feedInputs struct {
	cfg     server.FeedConfig
	preload [][]core.Op
	batches [][]core.Op
}

// genYCSBA builds a feed's preload and n YCSB-A (50/50 zipfian) batches.
func genYCSBA(cfg server.FeedConfig, records, valueBytes, batchOps, n int, seed uint64) feedInputs {
	d := ycsb.NewDriver(ycsb.WorkloadA, records, valueBytes, seed)
	in := feedInputs{cfg: cfg, preload: chunk(core.FromWorkload(d.Preload()), preloadChunk)}
	in.batches = chunk(core.FromWorkload(d.Generate(n*batchOps)), batchOps)
	return in
}

// clientSeed derives client c's input seed.
func clientSeed(seed uint64, c int) uint64 { return seed*1_000_003 + uint64(c+1)*7919 }

// runWrite is the write_http_durable workload: each client posts YCSB-A
// batches through server.Client.Do into its own unsharded feed on a durable
// gateway.
func runWrite(e *env, tr *tracer) (*report, error) {
	z := e.z
	segments := e.segments(tr)
	perSegment := z.perSegment(z.WriteBatchesPerClientPerSec, e.seconds)
	feeds := make([]feedInputs, clients)
	for c := range feeds {
		cfg := server.FeedConfig{ID: fmt.Sprintf("w%d", c), Policy: "memoryless", K: 2, EpochOps: z.WriteEpochOps}
		feeds[c] = genYCSBA(cfg, z.WriteRecords, z.WriteValueBytes, z.WriteBatchOps, (1+segments)*perSegment, clientSeed(e.seed, c))
	}
	e.inputsReady()

	var st *httpStack
	build := func() (err error) {
		dir, err := e.mkdir("write-")
		if err != nil {
			return err
		}
		st, err = newHTTPStack(server.GatewayOptions{DataDir: dir, SnapshotEvery: z.WriteSnapshotEvery, SyncWrites: false}, feeds)
		return err
	}
	setup, err := e.repeatSetup(tr, build, func() { st.close() })
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }() // idempotent: the run closes it before the oracle
	pre, err := gatewayStates(st.node.gw, feeds)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	digests := make([]*resultDigest, clients)
	for c := range digests {
		digests[c] = newResultDigest()
	}
	res := runLoop(loopSpec{
		clients: clients, segments: segments, perSegment: perSegment,
		tr: tr, spanName: "server.Client.Do", spanLayer: "server",
		do: func(c, i int) (int, bool) {
			batch := feeds[c].batches[i]
			results, err := st.clients[c].Do(feeds[c].cfg.ID, batch)
			if err != nil {
				return len(batch), false
			}
			digests[c].add(results)
			for _, r := range results {
				if r.Err != "" {
					return len(batch), false
				}
			}
			return len(batch), len(results) == len(batch)
		},
	})
	rep.addLoop(res)
	e.mark("window")
	heap := liveHeapMB()
	final, err := gatewayStates(st.node.gw, feeds)
	if err != nil {
		return nil, err
	}
	st.close()

	ratio := 0.0
	if tr == nil {
		samples := make([]int, len(feeds))
		for c, f := range feeds {
			samples[c] = z.gasSample(len(f.batches), segments)
		}
		if ratio, err = feedsOracle(rep, final, feeds, samples, digests); err != nil {
			return nil, err
		}
	}
	gasPerOp := windowGasPerOp(pre, final)

	sum, err := summarize(res.segs, z.MinSegmentRequests)
	if err != nil {
		return nil, err
	}
	rep.timing(sum, res)
	rep.set("setup_s", setup)
	rep.set("gas_per_op", gasPerOp)
	rep.set("gas_vs_best_static", ratio)
	rep.set("heap_live_mb", heap)
	rep.note("write_http_durable: %d clients x %d batches of %d ops (YCSB-A), %d records/feed, EpochOps=%d, DataDir, SnapshotEvery=%d",
		clients, (1+segments)*perSegment, z.WriteBatchOps, z.WriteRecords, z.WriteEpochOps, z.WriteSnapshotEvery)

	if tr != nil {
		in := ladderInput{cfg: feeds[0].cfg, preload: flatten(feeds[0].preload)}
		in.cfg.ID = "ladder"
		in.batches = capBatches(feeds[0].batches[perSegment:2*perSegment], z.LadderBatchCap)
		in.fillReads(z, ycsbKeys(z.WriteRecords), z.ReadRangeKeys-1)
		if err := runLadder(e, in, tr, rep, res); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// gatewayStates reads every feed's state, in feeds order.
func gatewayStates(gw *server.Gateway, feeds []feedInputs) ([]finalState, error) {
	out := make([]finalState, len(feeds))
	for i, f := range feeds {
		st, err := gatewayState(gw, f.cfg.ID)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// windowGasPerOp is feed-layer Gas per executed op between two readings of
// every feed's state (after preload, after the run): exact for a seed.
func windowGasPerOp(pre, final []finalState) float64 {
	var g gas.Gas
	ops := 0
	for i := range final {
		g += final[i].gas - pre[i].gas
		ops += final[i].ops - pre[i].ops
	}
	return float64(g) / float64(ops)
}

func flatten(batches [][]core.Op) []core.Op {
	var out []core.Op
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func capBatches(b [][]core.Op, n int) [][]core.Op {
	if len(b) > n {
		return b[:n]
	}
	return b
}
