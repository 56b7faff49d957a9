package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/kvstore"
	"grub/internal/merkle"
	"grub/internal/obs"
	"grub/internal/policy"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/server"
	"grub/internal/shard"
)

// ladderInput is what a workload hands the traced run's depth ladder: its
// feed configuration, its preload and the first measured segment of its own
// seeded requests, split into write-path batches and read-path keys.
type ladderInput struct {
	cfg        server.FeedConfig
	preload    []core.Op
	batches    [][]core.Op
	readKeys   []string
	absentKeys []string
	ranges     [][2]string
}

// fillReads gives a batch workload read-path probes over its own keyspace:
// LadderReads evenly spaced keys, as many never-written neighbours, and a
// tenth as many windows of span+1 adjacent keys.
func (in *ladderInput) fillReads(z sizes, keys []string, span int) {
	n := min(z.LadderReads, len(keys))
	for i := 0; i < n; i++ {
		k := i * len(keys) / n
		in.readKeys = append(in.readKeys, keys[k])
		in.absentKeys = append(in.absentKeys, keys[k]+"x")
		if i%10 == 0 {
			in.ranges = append(in.ranges, [2]string{keys[k], keys[min(k+span, len(keys)-1)]})
		}
	}
}

// capReads bounds a read workload's own probes to the ladder's budget.
func (in *ladderInput) capReads(z sizes) {
	in.readKeys = in.readKeys[:min(len(in.readKeys), z.LadderReads)]
	in.absentKeys = in.absentKeys[:min(len(in.absentKeys), z.LadderReads)]
	in.ranges = in.ranges[:min(len(in.ranges), z.LadderReads)]
}

func (in *ladderInput) ops() int {
	n := 0
	for _, b := range in.batches {
		n += len(b)
	}
	return n
}

// sink keeps the results of timed pure calls alive.
var sink any

// timeEach runs fn(0..n-1) and returns the total time.
func timeEach(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0)
}

// ladder carries one traced run's depth-ladder state.
type ladder struct {
	e   *env
	in  ladderInput
	tr  *tracer
	rep *report
}

// ladderRung is one level of the write ladder: a stack preloaded like every
// other, and the call that executes a batch on it.
type ladderRung struct {
	name, layer string
	do          func([]core.Op) error
	total       time.Duration
	spans       []int // span of batch i on this rung
}

// ladderChunks is how many slices the ladder's batches are replayed in,
// each slice on every rung before the next slice on any: a slow spell of
// the host then falls on all rungs alike instead of on whichever rung was
// running, which is what keeps rung differences meaningful.
const ladderChunks = 8

// replay runs the batches through the rungs (ordered top rung first, so a
// batch's span on the rung above always exists to be its parent), one span
// per call, and leaves each rung's summed time in total.
func (l *ladder) replay(rungs []*ladderRung) error {
	n := len(l.in.batches)
	for _, r := range rungs {
		r.spans = make([]int, n)
	}
	for c := 0; c < ladderChunks; c++ {
		// Every slice starts from a collected heap, so the garbage of
		// the preloads and earlier slices is charged to no rung.
		runtime.GC()
		for ri, r := range rungs {
			for i := c * n / ladderChunks; i < (c+1)*n/ladderChunks; i++ {
				parent := -1
				if ri > 0 {
					parent = rungs[ri-1].spans[i]
				}
				t0 := time.Now()
				err := r.do(l.in.batches[i])
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("%s: %w", r.name, err)
				}
				r.total += t1.Sub(t0)
				r.spans[i] = l.tr.add(r.name, r.layer, i, parent, t0, t1)
			}
		}
	}
	return nil
}

// batchDo adapts a Do-shaped call (per-op errors surface as failures).
func batchDo(do func([]core.Op) ([]core.OpResult, error)) func([]core.Op) error {
	return func(ops []core.Op) error { return doAll(do, [][]core.Op{ops}) }
}

// persistedShards builds the feed's shard engine the way the gateway does,
// with the kvstore op log underneath.
func persistedShards(cfg server.FeedConfig, dir string, snapshotEvery int) (*shard.ShardedFeed, error) {
	restore := func(_ int, snap *core.FeedSnapshot) (*core.Feed, error) {
		return server.RestoreFeedFromConfig(cfg, snap)
	}
	return shard.New(shard.Options{
		Shards: cfg.Shards, Views: true, Repl: true, Restore: restore,
		Persist: &shard.PersistOptions{Dir: dir, SnapshotEvery: snapshotEvery, SyncWrites: false, Restore: restore},
	}, func(int) (*core.Feed, error) { return server.NewFeed(cfg) })
}

// runLadder replays the input through identically preloaded stacks built
// from public constructors, top rung first, then probes the read path, the
// catch-up path and the unit costs. A rung's cumulative time is the sum of
// its spans; a layer's self time is its rung minus the rung below.
func runLadder(e *env, in ladderInput, tr *tracer, rep *report, mini loopResult) error {
	if len(in.batches) == 0 || len(in.readKeys) == 0 || len(in.ranges) == 0 || len(in.absentKeys) == 0 {
		return fmt.Errorf("ladder input is missing batches or read probes")
	}
	l := &ladder{e: e, in: in, tr: tr, rep: rep}
	z, cfg, id := e.z, in.cfg, in.cfg.ID
	ops := in.ops()
	preload := chunk(in.preload, preloadChunk)
	retain := len(preload) + len(in.batches) + 16

	// Build every rung's stack first, identically preloaded. The HTTP
	// stack stays up afterwards for the read and catch-up ladders.
	durable := func() (*httpStack, error) {
		dir, err := e.mkdir("ladder-")
		if err != nil {
			return nil, err
		}
		opts := server.GatewayOptions{DataDir: dir, SnapshotEvery: z.WriteSnapshotEvery, SyncWrites: false, ReplRetain: retain}
		return newHTTPStack(opts, []feedInputs{{cfg: cfg, preload: preload}})
	}
	top, err := durable()
	if err != nil {
		return err
	}
	defer top.close()
	inproc, err := durable()
	if err != nil {
		return err
	}
	defer inproc.close()

	walDir, err := e.mkdir("ladder-wal-")
	if err != nil {
		return err
	}
	psf, err := persistedShards(cfg, walDir, z.WriteSnapshotEvery)
	if err != nil {
		return err
	}
	defer psf.Kill()
	if err := doAll(psf.Do, preload); err != nil {
		return err
	}

	memShards := func(n int) (*shard.ShardedFeed, error) {
		c := cfg
		c.Shards = n
		sf, err := server.NewShardedFeed(c)
		if err != nil {
			return nil, err
		}
		if err := doAll(sf.Do, preload); err != nil {
			sf.Kill()
			return nil, err
		}
		return sf, nil
	}
	sf, err := memShards(cfg.Shards)
	if err != nil {
		return err
	}
	defer sf.Kill()

	feed, err := server.NewFeed(cfg)
	if err != nil {
		return err
	}
	core.ApplyOps(feed, in.preload)

	set := ads.NewSet()
	for _, op := range in.preload {
		set.Put(ads.Record{Key: op.Key, State: ads.NR, Value: op.Value})
	}

	client := top.clients[0]
	var responses [][]core.OpResult
	puts := 0
	rungsDown := []*ladderRung{
		{name: "server.Client.Do", layer: "server", do: func(b []core.Op) error {
			res, err := client.Do(id, b)
			responses = append(responses, res)
			return err
		}},
		{name: "server.Gateway.Do", layer: "server", do: batchDo(func(b []core.Op) ([]core.OpResult, error) { return inproc.node.gw.Do(id, b) })},
		{name: "shard.ShardedFeed.Do+wal", layer: "kvstore", do: batchDo(psf.Do)},
		{name: "shard.ShardedFeed.Do", layer: "shard", do: batchDo(sf.Do)},
		{name: "core.ApplyOps", layer: "core", do: func(b []core.Op) error {
			sink = core.ApplyOps(feed, b)
			return nil
		}},
		// The authenticated set alone, one Root() per batch.
		{name: "ads.Set.Put", layer: "ads", do: func(b []core.Op) error {
			for _, op := range b {
				if op.Type == "write" {
					set.Put(ads.Record{Key: op.Key, State: ads.NR, Value: op.Value})
					puts++
				}
			}
			sink = set.Root()
			return nil
		}},
	}
	if err := l.replay(rungsDown); err != nil {
		return err
	}
	inproc.close()
	psf.Kill() // releases the op log for the storage probe
	sf.Kill()
	httpT, gwT, walT := rungsDown[0].total, rungsDown[1].total, rungsDown[2].total
	shardT, coreT, adsT := rungsDown[3].total, rungsDown[4].total, rungsDown[5].total

	rungs := []rung{{"ads", adsT}, {"core", coreT}, {"shard", shardT}, {"kvstore", walT}, {"gateway", gwT}, {"http", httpT}}
	self := selfTimes(rungs)
	for i, r := range rungs {
		rep.note("ladder rung %-8s total %9.3f ms  self %9.3f ms", r.name, ms(r.total), ms(self[i]))
	}
	rep.set("ads.put_us", perOpUs(adsT, max(puts, 1)))
	rep.set("core.apply_us", perOpUs(coreT, ops))
	rep.set("shard.do_us", perOpUs(shardT, ops))
	rep.set("shard.self_us", perOpUs(self[2], ops))
	rep.set("kvstore.wal_self_us", perOpUs(self[3], ops))
	rep.set("server.gateway_do_us", perOpUs(gwT, ops))
	rep.set("server.http_do_us", perOpUs(httpT, ops))

	// JSON codec of the run's own requests and responses, both directions.
	reqBytes := 0
	jsonT := timeEach(len(in.batches), func(i int) {
		b, _ := json.Marshal(server.BatchRequest{Ops: in.batches[i]})
		var req server.BatchRequest
		json.Unmarshal(b, &req)
		reqBytes += len(b)
		b, _ = json.Marshal(server.BatchResponse{Results: responses[i]})
		var resp server.BatchResponse
		json.Unmarshal(b, &resp)
	})
	rep.set("server.json_us", perOpUs(jsonT, ops))
	rep.set("server.http_self_us", perOpUs(self[5]-jsonT, ops))
	rep.set("server.req_bytes_per_batch", float64(reqBytes)/float64(len(in.batches)))

	// core.ApplyOps by op type, one op at a time on a fresh feed.
	byType, err := server.NewFeed(cfg)
	if err != nil {
		return err
	}
	core.ApplyOps(byType, in.preload)
	var writeT, readT time.Duration
	writes, reads := 0, 0
	for _, b := range in.batches {
		for i := range b {
			t0 := time.Now()
			sink = core.ApplyOps(byType, b[i:i+1])
			if d := time.Since(t0); b[i].Type == "write" {
				writeT, writes = writeT+d, writes+1
			} else {
				readT, reads = readT+d, reads+1
			}
		}
	}
	rep.set("core.apply_write_us", perOpUs(writeT, writes))
	rep.set("core.apply_read_us", perOpUs(readT, reads))

	// Scatter: the same ops on four shards minus on one.
	var scatter [2]time.Duration
	for i, n := range []int{1, 4} {
		if n == max(cfg.Shards, 1) {
			scatter[i] = shardT
			continue
		}
		sf, err := memShards(n)
		if err != nil {
			return err
		}
		scatter[i] = timeEach(len(in.batches), func(j int) { sf.Do(in.batches[j]) })
		sf.Kill()
	}
	rep.set("shard.scatter_us", perOpUs(scatter[1]-scatter[0], ops))

	if err := l.gatewayCounters(top, ops); err != nil {
		return err
	}
	if err := l.readLadder(top, set); err != nil {
		return err
	}
	if err := l.catchupLadder(top, retain); err != nil {
		return err
	}
	if err := l.storage(walDir, feed); err != nil {
		return err
	}
	if err := l.unitCosts(); err != nil {
		return err
	}
	overhead, err := traceOverhead(mini.segs)
	if err != nil {
		return err
	}
	rep.set("trace_overhead_frac", overhead)
	return nil
}

// gatewayCounters reads what the top rung's gateway already serves about
// the replay it just executed: stage latencies, storage counters, chain and
// policy state.
func (l *ladder) gatewayCounters(top *httpStack, ops int) error {
	id, rep := l.in.cfg.ID, l.rep
	lat, err := top.clients[0].Latency(id)
	if err != nil {
		return err
	}
	total := func(stage string) float64 { s := lat.Stages[stage]; return s.MeanMS * float64(s.Count) }
	rep.set("shard.mailbox_wait_ms", total(obs.StageMailbox))
	rep.set("shard.persist_ms", total(obs.StagePersist))
	rep.set("shard.publish_ms", total(obs.StagePublish))
	rep.set("shard.repl_append_ms", total(obs.StageReplAppend))
	rep.set("server.ingress_ms", total(obs.StageIngress))

	var text string
	var scrapes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		resp, err := top.https[0].Get(top.node.url + "/metrics")
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics: status %d: %v", resp.StatusCode, err)
		}
		scrapes = append(scrapes, ms(time.Since(t0)))
		text = string(body)
	}
	rep.set("obs.metrics_scrape_ms", median(scrapes))
	fams, err := obs.ParseExposition(text)
	if err != nil {
		return err
	}
	counter := func(name string) float64 {
		for _, f := range fams {
			if f.Name == name && len(f.Samples) > 0 {
				return f.Samples[0].Value
			}
		}
		return 0
	}
	rep.set("kvstore.flushes", counter("grub_kv_flushes_total"))
	rep.set("kvstore.compactions", counter("grub_kv_compactions_total"))
	rep.set("kvstore.compaction_bytes", counter("grub_kv_compaction_bytes_total"))

	stats, err := top.node.gw.Stats(id)
	if err != nil {
		return err
	}
	rep.set("policy.replicated_frac", float64(stats.Feed.Replicated)/float64(max(stats.Feed.Records, 1)))
	rep.set("chain.tx_per_op", float64(stats.Feed.TxCount)/float64(max(stats.Ops, 1)))
	rep.set("chain.gas_per_tx", float64(stats.Feed.TotalGas)/float64(max(stats.Feed.TxCount, 1)))
	return nil
}

// readLadder times the authenticated read path bottom-up over the same
// keys: ads.Set proofs, query.Engine, Client.Get, VerifyingClient.Get.
func (l *ladder) readLadder(top *httpStack, set *ads.Set) error {
	in, rep, tr, id := l.in, l.rep, l.tr, l.in.cfg.ID

	// ads: proofs straight off a set holding the same records.
	type proven struct {
		rec   ads.Record
		proof *merkle.Proof
	}
	var proofs []proven
	proofBytes := 0
	proveT := timeEach(len(in.readKeys), func(i int) {
		if rec, p, err := set.ProveKey(in.readKeys[i]); err == nil {
			proofs = append(proofs, proven{rec, p})
			proofBytes += p.Size()
		}
	})
	if len(proofs) == 0 {
		return fmt.Errorf("read ladder: none of %d keys is in the set", len(in.readKeys))
	}
	rep.set("ads.prove_us", perOpUs(proveT, len(in.readKeys)))
	rep.set("ads.proof_bytes", float64(proofBytes)/float64(len(proofs)))
	absentT := timeEach(len(in.absentKeys), func(i int) { sink, _ = set.ProveAbsent(in.absentKeys[i]) })
	rep.set("ads.prove_absent_us", perOpUs(absentT, len(in.absentKeys)))
	rangeT := timeEach(len(in.ranges), func(i int) { sink, _ = set.ProveRangeNR(in.ranges[i][0], in.ranges[i][1]) })
	rep.set("ads.prove_range_us", perOpUs(rangeT, len(in.ranges)))
	root := set.Root()
	bad := 0
	verifyT := timeEach(len(proofs), func(i int) {
		if ads.VerifyRecord(root, proofs[i].rec, proofs[i].proof) != nil {
			bad++
		}
	})
	rep.set("ads.verify_us", perOpUs(verifyT, len(proofs)))
	leaves := make([]merkle.Hash, len(proofs))
	for i, p := range proofs {
		leaves[i] = p.rec.Leaf()
	}
	mverifyT := timeEach(len(proofs), func(i int) {
		if merkle.Verify(root, leaves[i], proofs[i].proof) != nil {
			bad++
		}
	})
	rep.set("merkle.verify_us", perOpUs(mverifyT, len(proofs)))
	if bad > 0 {
		rep.mismatch("read ladder: %d of %d set proofs failed verification", bad, 2*len(proofs))
	}

	// query: the engine the gateway serves reads from.
	eng, err := top.node.gw.Query(id)
	if err != nil {
		return err
	}
	keys := append(append([]string(nil), in.readKeys...), in.absentKeys...)
	results := make([]*query.GetResult, len(keys))
	engSpans := make([]int, len(keys))
	var getT time.Duration
	getBytes := 0
	for i, k := range keys {
		t0 := time.Now()
		res, err := eng.Get(k)
		t1 := time.Now()
		if err != nil {
			return err
		}
		results[i], getT = res, getT+t1.Sub(t0)
		getBytes += res.ProofBytes()
		engSpans[i] = tr.add("query.Engine.Get", "query", i, -1, t0, t1)
	}
	rep.set("query.get_us", perOpUs(getT, len(keys)))
	rep.set("query.proof_bytes_per_get", float64(getBytes)/float64(len(keys)))
	vgetT := timeEach(len(keys), func(i int) {
		if query.VerifyGet(keys[i], results[i]) != nil {
			bad++
		}
	})
	rep.set("query.verify_get_us", perOpUs(vgetT, len(keys)))
	var slices [][]query.RangeResult
	rangeBytes := 0
	qrangeT := timeEach(len(in.ranges), func(i int) {
		s, _ := eng.Range(in.ranges[i][0], in.ranges[i][1])
		slices = append(slices, s)
	})
	rep.set("query.range_us", perOpUs(qrangeT, len(in.ranges)))
	vrangeT := timeEach(len(slices), func(i int) {
		for j := range slices[i] {
			if query.VerifyRange(in.ranges[i][0], in.ranges[i][1], &slices[i][j]) != nil {
				bad++
			}
		}
	})
	for _, s := range slices {
		for j := range s {
			rangeBytes += s[j].ProofBytes()
		}
	}
	rep.set("query.verify_range_us", perOpUs(vrangeT, len(slices)))
	rep.set("query.proof_bytes_per_range", float64(rangeBytes)/float64(len(slices)))
	if bad > 0 {
		rep.mismatch("read ladder: %d engine proofs failed verification", bad)
	}

	// server: the same keys over loopback, unverified then verified.
	client := top.clients[0]
	httpSpans := make([]int, len(keys))
	var httpT time.Duration
	for i, k := range keys {
		t0 := time.Now()
		_, err := client.Get(id, k)
		t1 := time.Now()
		if err != nil {
			return err
		}
		httpT += t1.Sub(t0)
		httpSpans[i] = tr.add("server.Client.Get", "server", i, -1, t0, t1)
		tr.spans[engSpans[i]].Parent = httpSpans[i]
	}
	rep.set("server.get_http_us", perOpUs(httpT, len(keys)))
	respBytes := 0
	gjsonT := timeEach(len(keys), func(i int) {
		b, _ := json.Marshal(server.GetResponse{ID: id, Result: results[i]})
		var out server.GetResponse
		json.Unmarshal(b, &out)
		respBytes += len(b)
	})
	rep.set("server.get_json_us", perOpUs(gjsonT, len(keys)))
	rep.set("server.resp_bytes_per_get", float64(respBytes)/float64(len(keys)))
	vc := server.NewVerifyingClient(top.node.url)
	vc.Client = client
	if _, err := vc.Get(id, keys[0]); err != nil { // pins the anchors
		return err
	}
	var verifiedT time.Duration
	for i, k := range keys {
		t0 := time.Now()
		_, err := vc.Get(id, k)
		t1 := time.Now()
		if err != nil {
			return err
		}
		verifiedT += t1.Sub(t0)
		top := tr.add("server.VerifyingClient.Get", "server", i, -1, t0, t1)
		tr.spans[httpSpans[i]].Parent = top
	}
	rep.set("server.verify_client_us", perOpUs(verifiedT-httpT, len(keys)))
	return nil
}

// catchupLadder ships the top rung's replication log by hand — page fetch,
// then anchor-verified apply on a fresh engine — and then lets a real
// repl.Follower do the same, so the difference is what polling costs.
func (l *ladder) catchupLadder(top *httpStack, retain int) error {
	in, rep, tr, id := l.in, l.rep, l.tr, l.in.cfg.ID
	rc := &repl.Client{Base: top.node.url, HTTP: top.https[0]}
	target, err := server.NewShardedFeed(in.cfg)
	if err != nil {
		return err
	}
	defer target.Kill()
	var fetchT, applyT time.Duration
	pages, entryOps, wire := 0, 0, 0
	for sh := 0; sh < target.Shards(); sh++ {
		var cursor uint64
		for {
			t0 := time.Now()
			page, err := rc.Log(id, sh, cursor, followerMaxBatches)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if page.SnapshotRequired {
				return fmt.Errorf("catch-up ladder: log below cursor %d was evicted (retain %d)", cursor, retain)
			}
			if len(page.Entries) == 0 {
				break
			}
			fetchT, pages = fetchT+t1.Sub(t0), pages+1
			fetch := tr.add("repl.Client.Log", "repl", pages, -1, t0, t1)
			for _, ent := range page.Entries {
				a0 := time.Now()
				err := target.Apply(sh, ent)
				a1 := time.Now()
				if err != nil {
					return fmt.Errorf("catch-up ladder: %w", err)
				}
				applyT += a1.Sub(a0)
				tr.add("shard.ShardedFeed.Apply", "shard", int(ent.Seq), fetch, a0, a1)
				entryOps += len(ent.Ops)
				wire += ent.WireBytes()
				cursor = ent.Seq
			}
		}
	}
	if pages == 0 {
		return fmt.Errorf("catch-up ladder: leader served no log")
	}
	rep.set("repl.page_fetch_ms", ms(fetchT)/float64(pages))
	rep.set("repl.wire_bytes_per_op", float64(wire)/float64(entryOps))
	rep.set("shard.apply_entry_us", perOpUs(applyT, entryOps))

	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := rc.Snapshot(id, 0); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t0)))
	}
	rep.set("repl.snapshot_ms", median(snaps))

	t0 := time.Now()
	fl := startFollower(top.node.url)
	err = fl.f.WaitConverged(convergeTimeout)
	wall := time.Since(t0)
	fl.close()
	if err != nil {
		return err
	}
	rep.set("repl.follower_overhead_frac", 1-(fetchT+applyT).Seconds()/wall.Seconds())
	return nil
}

// storage probes what is on disk and what a feed image costs: a scan of
// the shard rung's op log, its bytes per logged op, and a feed snapshot and
// restore.
func (l *ladder) storage(walDir string, feed *core.Feed) error {
	rep := l.rep
	var bytes int64
	err := filepath.WalkDir(walDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("kvstore.disk_bytes_per_op", float64(bytes)/float64(len(l.in.preload)+l.in.ops()))

	db, err := kvstore.Open(filepath.Join(walDir, "shard-000"), kvstore.Options{})
	if err != nil {
		return err
	}
	recs := 0
	t0 := time.Now()
	for it := db.NewIteratorFrom([]byte("log/")); it.Valid() && strings.HasPrefix(string(it.Key()), "log/"); it.Next() {
		sink = it.Value()
		recs++
	}
	scanT := time.Since(t0)
	db.Close()
	if recs == 0 {
		return fmt.Errorf("storage probe: op log is empty")
	}
	rep.set("kvstore.scan_us_per_rec", perOpUs(scanT, recs))

	var snapMs, restoreMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		snap, err := feed.Snapshot()
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := server.RestoreFeedFromConfig(l.in.cfg, snap); err != nil {
			return err
		}
		snapMs, restoreMs = append(snapMs, ms(t1.Sub(t0))), append(restoreMs, ms(time.Since(t1)))
	}
	rep.set("core.snapshot_ms", median(snapMs))
	rep.set("core.restore_ms", median(restoreMs))
	return nil
}

// unitCosts times single calls directly, UnitCalls times each.
func (l *ladder) unitCosts() error {
	n, rep := l.e.z.UnitCalls, l.rep
	perCallNs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

	leaf := ads.Record{Key: "user0000000001", State: ads.NR, Value: make([]byte, 32)}.Encode()
	rep.set("merkle.hash_leaf_ns", perCallNs(timeEach(n, func(int) { sink = merkle.HashLeaf(leaf) })))
	a, b := merkle.HashLeaf(leaf), merkle.HashLeaf(leaf[1:])
	rep.set("merkle.hash_inner_ns", perCallNs(timeEach(n, func(int) { a = merkle.HashInner(a, b) })))

	set := ads.NewSet()
	for i := 0; i < 1024; i++ {
		set.Put(ads.Record{Key: fmt.Sprintf("k%06d", i), Value: leaf})
	}
	rep.set("ads.clone_ns", perCallNs(timeEach(n, func(int) { sink = set.Clone() })))

	pol := policy.NewMemoryless(2)
	keys := ycsbKeys(1024)
	rep.set("policy.observe_ns", perCallNs(timeEach(n, func(i int) {
		if i%2 == 0 {
			pol.Observe(policy.Read(keys[i%1024]))
		} else {
			pol.Observe(policy.Write(keys[i%1024]))
		}
	})))

	c := chain.NewDefault()
	c.Register("noop", "run", func(*chain.Ctx, any) (any, error) { return nil, nil })
	txT := timeEach(n, func(int) {
		c.Submit(&chain.Tx{From: "user", To: "noop", Method: "run", PayloadBytes: 32})
		c.MineUntilEmpty()
	})
	rep.set("chain.tx_overhead_us", perCallNs(txT)/1e3)

	hist := obs.NewHistogram(nil)
	rep.set("obs.observe_ns", perCallNs(timeEach(n, func(i int) { hist.Observe(float64(i%1000) * 1e-6) })))

	// A kvstore put of a batch-sized value (one logged 16-op batch).
	payload, _ := json.Marshal(l.in.batches[0])
	dir, err := l.e.mkdir("kv-")
	if err != nil {
		return err
	}
	db, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}
	key := make([]byte, 0, 24)
	putT := timeEach(n, func(i int) {
		key = fmt.Appendf(key[:0], "log/%016x", i)
		db.Put(key, payload)
	})
	db.Close()
	rep.set("kvstore.put_us", perCallNs(putT)/1e3)
	return nil
}
