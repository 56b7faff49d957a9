package main

import (
	"bytes"
	"fmt"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/server"
	"grub/internal/sim"
	"grub/internal/workload/ycsb"
)

// Request kinds of the verified-read mix.
const (
	reqGet = iota
	reqGetAbsent
	reqRange
	reqWrite
)

// readReq is one request of the verified_read_http mix.
type readReq struct {
	kind   int
	key    string // reqGet, reqGetAbsent
	lo, hi string // reqRange: ycsb.Key(loIdx) .. ycsb.Key(loIdx+rangeKeys-1)
	loIdx  int
	batch  []core.Op // reqWrite
}

// genReadMix builds n requests: 80% verified Get of a preloaded key, 10% of
// a key that was never written (an absence proof from inside the keyspace),
// 5% verified Range over rangeKeys adjacent keys, 5% a write batch, so views
// and anchors keep advancing under the readers. Keys are zipfian, as in YCSB.
func genReadMix(z sizes, n int, seed uint64) []readReq {
	r := sim.NewRand(seed)
	pick := ycsb.NewScrambledZipfian(z.ReadRecords, r)
	reqs := make([]readReq, n)
	for i := range reqs {
		switch p := r.Float64(); {
		case p < 0.80:
			reqs[i] = readReq{kind: reqGet, key: ycsb.Key(pick.Next())}
		case p < 0.90:
			reqs[i] = readReq{kind: reqGetAbsent, key: ycsb.Key(pick.Next()) + "x"}
		case p < 0.95:
			lo := pick.Next()
			reqs[i] = readReq{kind: reqRange, loIdx: lo, lo: ycsb.Key(lo), hi: ycsb.Key(lo + z.ReadRangeKeys - 1)}
		default:
			batch := make([]core.Op, z.ReadWriteBatchOps)
			for j := range batch {
				v := make([]byte, 32)
				for k := range v {
					v[k] = byte(r.Uint64())
				}
				batch[j] = core.Op{Type: "write", Key: ycsb.Key(pick.Next()), Value: v}
			}
			reqs[i] = readReq{kind: reqWrite, batch: batch}
		}
	}
	return reqs
}

// freshness is the client's own model of what a verified read must return.
// GRuB's freshness is epoch-bounded: a shard's writes are staged and become
// readable when that shard has executed EpochOps ops since its last flush.
// One client owns the feed and waits for every reply, so the model is exact.
type freshness struct {
	shards, epochOps int
	visible          map[string][]byte
	staged           [][]core.Op
}

func newFreshness(shards, epochOps int) *freshness {
	return &freshness{shards: shards, epochOps: epochOps, visible: make(map[string][]byte), staged: make([][]core.Op, shards)}
}

// write records executed write ops (this workload's feeds execute nothing
// else, so staged writes are the shard's whole epoch).
func (m *freshness) write(ops []core.Op) {
	for _, op := range ops {
		sh := query.ShardOf(op.Key, m.shards)
		m.staged[sh] = append(m.staged[sh], op)
		if len(m.staged[sh]) >= m.epochOps {
			for _, w := range m.staged[sh] {
				m.visible[w.Key] = w.Value
			}
			m.staged[sh] = m.staged[sh][:0]
		}
	}
}

// checkGet reports how a verified point read departs from the model.
func (m *freshness) checkGet(key string, res *query.GetResult) error {
	want, ok := m.visible[key]
	if res.Found != ok {
		return fmt.Errorf("get %q: found=%v, model says %v", key, res.Found, ok)
	}
	if ok && !bytes.Equal(res.Record.Value, want) {
		return fmt.Errorf("get %q: value differs from the model", key)
	}
	return nil
}

// checkRange reports how a verified range read departs from the model:
// every NR record in the window must carry the model's value. (This
// workload's feeds only execute writes, so the policy never replicates and
// the NR slices must also be complete.)
func (m *freshness) checkRange(rq *readReq, rangeKeys int, slices []query.RangeResult) error {
	lo, hi := rq.lo, rq.hi
	got := 0
	for _, s := range slices {
		for _, rec := range s.Range.Records {
			if rec.Key < lo || rec.Key > hi {
				return fmt.Errorf("range [%q,%q]: record %q outside the window", lo, hi, rec.Key)
			}
			if want, ok := m.visible[rec.Key]; !ok || !bytes.Equal(rec.Value, want) {
				return fmt.Errorf("range [%q,%q]: record %q differs from the model", lo, hi, rec.Key)
			}
			got++
		}
	}
	want := 0
	for i := 0; i < rangeKeys; i++ {
		if _, ok := m.visible[ycsb.Key(rq.loIdx+i)]; ok {
			want++
		}
	}
	if got != want {
		return fmt.Errorf("range [%q,%q]: %d records, model has %d", lo, hi, got, want)
	}
	return nil
}

// runRead is the verified_read_http workload: each client issues single
// HTTP requests from a seeded mix against its own sharded feed on an
// in-memory gateway, verifying every proof.
func runRead(e *env, tr *tracer) (*report, error) {
	z := e.z
	segments := e.segments(tr)
	perSegment := z.perSegment(z.ReadRequestsPerClientPerSec, e.seconds)
	feeds := make([]feedInputs, clients)
	mixes := make([][]readReq, clients)
	for c := range feeds {
		cfg := server.FeedConfig{ID: fmt.Sprintf("r%d", c), Policy: "memoryless", K: 2, EpochOps: z.ReadEpochOps, Shards: z.ReadShards}
		d := ycsb.NewDriver(ycsb.WorkloadA, z.ReadRecords, 32, clientSeed(e.seed, c))
		feeds[c] = feedInputs{cfg: cfg, preload: chunk(core.FromWorkload(d.Preload()), preloadChunk)}
		mixes[c] = genReadMix(z, (1+segments)*perSegment, clientSeed(e.seed, c)+1)
		for _, rq := range mixes[c] {
			if rq.kind == reqWrite {
				feeds[c].batches = append(feeds[c].batches, rq.batch)
			}
		}
	}
	e.inputsReady()

	var st *httpStack
	build := func() (err error) {
		st, err = newHTTPStack(server.GatewayOptions{}, feeds)
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
	models := make([]*freshness, clients)
	verifiers := make([]*server.VerifyingClient, clients)
	firstErr := make([]error, clients)
	for c := range feeds {
		digests[c] = newResultDigest()
		models[c] = newFreshness(z.ReadShards, z.ReadEpochOps)
		for _, b := range feeds[c].preload {
			models[c].write(b)
		}
		verifiers[c] = server.NewVerifyingClient(st.node.url)
		verifiers[c].Client = st.clients[c]
		// Pin the anchors now: the first read of the window should not
		// pay the bootstrap round trip.
		if _, err := verifiers[c].Get(feeds[c].cfg.ID, ycsb.Key(0)); err != nil {
			return nil, fmt.Errorf("anchor bootstrap: %w", err)
		}
	}
	res := runLoop(loopSpec{
		clients: clients, segments: segments, perSegment: perSegment,
		tr: tr, spanName: "server.VerifyingClient", spanLayer: "server",
		do: func(c, i int) (int, bool) {
			rq, id, m := &mixes[c][i], feeds[c].cfg.ID, models[c]
			var err error
			ops := 1
			switch rq.kind {
			case reqGet, reqGetAbsent:
				var got *query.GetResult
				if got, err = verifiers[c].Get(id, rq.key); err == nil {
					err = m.checkGet(rq.key, got)
				}
			case reqRange:
				var got []query.RangeResult
				if got, err = verifiers[c].Range(id, rq.lo, rq.hi); err == nil {
					err = m.checkRange(rq, z.ReadRangeKeys, got)
				}
			case reqWrite:
				ops = len(rq.batch)
				var results []core.OpResult
				if results, err = st.clients[c].Do(id, rq.batch); err == nil {
					digests[c].add(results)
					m.write(rq.batch)
					for _, r := range results {
						if r.Err != "" {
							err = fmt.Errorf("write %q: %s", r.Key, r.Err)
						}
					}
				}
			}
			if err != nil && firstErr[c] == nil {
				firstErr[c] = err
			}
			return ops, err == nil
		},
	})
	rep.addLoop(res)
	for c, err := range firstErr {
		if err != nil {
			rep.note("client %d first failure: %v", c, err)
		}
	}
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
	var verified, proofBytes int64
	for _, v := range verifiers {
		n, b := v.VerifiedStats()
		verified, proofBytes = verified+n, proofBytes+b
	}

	sum, err := summarize(res.segs, z.MinSegmentRequests)
	if err != nil {
		return nil, err
	}
	rep.timing(sum, res)
	rep.set("setup_s", setup)
	rep.set("gas_per_op", gasPerOp)
	rep.set("gas_vs_best_static", ratio)
	rep.set("heap_live_mb", heap)
	rep.note("verified_read_http: %d clients x %d requests (80%% get, 10%% absent, 5%% range of %d keys, 5%% %d-write batch), %d records/feed, %d shards, in-memory gateway; %d proofs verified, %.0f proof B each",
		clients, (1+segments)*perSegment, z.ReadRangeKeys, z.ReadWriteBatchOps, z.ReadRecords, z.ReadShards, verified, float64(proofBytes)/float64(max(verified, 1)))

	if tr != nil {
		in := ladderInput{cfg: feeds[0].cfg, preload: flatten(feeds[0].preload)}
		in.cfg.ID = "ladder"
		for _, rq := range mixes[0][perSegment : 2*perSegment] {
			switch rq.kind {
			case reqWrite:
				in.batches = append(in.batches, rq.batch)
			case reqGet:
				in.readKeys = append(in.readKeys, rq.key)
			case reqGetAbsent:
				in.absentKeys = append(in.absentKeys, rq.key)
			case reqRange:
				in.ranges = append(in.ranges, [2]string{rq.lo, rq.hi})
			}
		}
		in.batches = capBatches(in.batches, z.LadderBatchCap)
		in.capReads(z)
		if err := runLadder(e, in, tr, rep, res); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
