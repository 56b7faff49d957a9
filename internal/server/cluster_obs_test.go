package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/obs"
)

// waitSlowRecord polls a node's slow-op log until it carries a record for
// traceID that includes a span for every one of stages. One trace ID can
// head several records: a forward the owner rejected is logged too, with
// the forward span alone, so the caller names every stage the record it
// wants must hold.
func waitSlowRecord(t *testing.T, log *syncBuffer, traceID string, timeout time.Duration, stages ...string) SlowOpRecord {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, line := range strings.Split(log.String(), "\n") {
			if line == "" {
				continue
			}
			var rec SlowOpRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("malformed slow-op line %q: %v", line, err)
			}
			if rec.Trace == traceID && hasStages(rec, stages) {
				return rec
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-op record for trace %q with stages %q within %v; log:\n%s",
				traceID, stages, timeout, log.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hasStages reports whether rec holds a span for every one of stages.
func hasStages(rec SlowOpRecord, stages []string) bool {
	for _, stage := range stages {
		if !slices.ContainsFunc(rec.Spans, func(sp obs.SpanRecord) bool { return sp.Stage == stage }) {
			return false
		}
	}
	return true
}

// TestClusterTraceStitching: a write through a non-owner node must yield
// ONE trace — the client-chosen ID — whose span breakdown stitches both
// nodes: the ingress node's forward hop plus the owner's remote_apply and
// pipeline spans, parented under the hop, all visible in the ingress
// node's slow-op log.
func TestClusterTraceStitching(t *testing.T) {
	logs := make([]*syncBuffer, 2)
	nodes := startTestClusterCfg(t, 2, func(i int, hc *HandlerConfig) {
		logs[i] = &syncBuffer{}
		hc.SlowOp = time.Nanosecond // trace and log every batch
		hc.SlowOpWriter = logs[i]
	})

	c := NewClient(nodes[0].url)
	c.Retry = Retry{Attempts: 4, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	if err := c.CreateFeed(FeedConfig{ID: "traced", Shards: 2, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, "traced", 5*time.Second)
	wi := 1 - oi

	const traceID = "stitch0123456789"
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", nodes[wi].url+"/feeds/traced/ops",
			strings.NewReader(`{"ops":[{"type":"write","key":"k1","value":"dg=="}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceHeader, traceID)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if attempt >= 20 {
			t.Fatalf("forwarded write never succeeded: status %d: %s", resp.StatusCode, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response trace ID = %q, want %q (one trace end to end)", got, traceID)
	}

	// The ingress node's slow-op log holds the stitched breakdown: the
	// record of the forward the owner applied, not that of one it rejected
	// before the retry that succeeded.
	rec := waitSlowRecord(t, logs[wi], traceID, 3*time.Second, obs.StageForward, obs.StageRemoteApply)
	byStage := make(map[string]obs.SpanRecord)
	for _, sp := range rec.Spans {
		if _, ok := byStage[sp.Stage]; !ok {
			byStage[sp.Stage] = sp
		}
	}
	fwd, ok := byStage[obs.StageForward]
	if !ok || fwd.Node != nodes[wi].url {
		t.Fatalf("forward span missing or mis-attributed: %+v (want node %s)", fwd, nodes[wi].url)
	}
	ra, ok := byStage[obs.StageRemoteApply]
	if !ok {
		t.Fatalf("stitched record lacks the owner's remote_apply span: %+v", rec.Spans)
	}
	if ra.Node != nodes[oi].url {
		t.Errorf("remote_apply recorded by %q, want owner %q", ra.Node, nodes[oi].url)
	}
	if want := nodes[wi].url + ":" + obs.StageForward; ra.Parent != want {
		t.Errorf("remote_apply parent = %q, want %q", ra.Parent, want)
	}
	for _, stage := range []string{obs.StageMailbox, obs.StageApply} {
		sp, ok := byStage[stage]
		if !ok {
			t.Errorf("stitched record lacks owner pipeline stage %q: %+v", stage, rec.Spans)
		} else if sp.Node != nodes[oi].url {
			t.Errorf("stage %q recorded by %q, want owner %q", stage, sp.Node, nodes[oi].url)
		}
	}

	// The owner logged the same trace ID from its side of the hop.
	waitSlowRecord(t, logs[oi], traceID, 3*time.Second, obs.StageRemoteApply)
}

// getJSONDoc fetches and decodes one JSON document.
func getJSONDoc(httpc *http.Client, url string, v any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// famSampleValue finds the sample of family name carrying a node=<node>
// label across the parsed exposition.
func famSampleValue(fams []obs.ParsedFamily, name, node string) (float64, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			for _, lp := range s.Labels {
				if lp.Name == "node" && lp.Value == node {
					return s.Value, true
				}
			}
		}
	}
	return 0, false
}

// TestClusterLoadFederationE2E is the acceptance storm: 32 writers drive
// one hot feed through non-owner nodes of a 3-node cluster. While the
// storm runs, every node's GET /cluster/load must rank the hot feed first
// with the owner's EWMA within 25% of the driven rate; GET /cluster/metrics
// must federate every live peer under a node label; and killing a peer
// must mark it stale (scrape_ok 0) rather than hang the scrape.
func TestClusterLoadFederationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load storm")
	}
	nodes := startTestCluster(t, 3)
	c := NewClient(nodes[0].url)
	c.Retry = Retry{Attempts: 4, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	for _, id := range []string{"hot", "cold"} {
		if err := c.CreateFeed(FeedConfig{ID: id, Shards: 2, EpochOps: 8}); err != nil {
			t.Fatal(err)
		}
	}
	oi := ownerIndex(t, nodes, "hot", 5*time.Second)

	// The driven rate, bucketed by wall-clock second the way the meters
	// bucket it: counts[s] is the acked hot-feed ops in second base+s.
	base := time.Now().Unix()
	var counts [32]int64
	record := func(feed string) {
		if s := time.Now().Unix() - base; feed == "hot" && s >= 0 && int(s) < len(counts) {
			atomic.AddInt64(&counts[s], 1)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := func(w int, feed string, pause time.Duration) {
		defer wg.Done()
		// Writers target the two non-owner nodes: every op takes the
		// forward path before the owner's shard workers meter it.
		cl := NewClient(nodes[(oi+1+w%2)%3].url)
		cl.Retry = Retry{Attempts: 4, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("w%02d-%05d", w, i)
			if _, err := cl.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("v")}}); err == nil {
				record(feed)
			}
			time.Sleep(pause)
		}
	}
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go writer(w, "hot", 3*time.Millisecond)
	}
	wg.Add(1)
	go writer(32, "cold", 100*time.Millisecond) // trickle, so "cold" ranks but stays cool

	// Let the EWMA see several completed seconds of steady storm, then
	// assert while the writers keep running (a stopped storm decays).
	time.Sleep(3500 * time.Millisecond)

	// expectedEWMA mirrors the meter's weighting over the driven counts:
	// newest completed second weighs 0.5, each older one half that.
	expectedEWMA := func(now int64) float64 {
		sum, wsum, w := 0.0, 0.0, 0.5
		for k := int64(1); k < 8; k++ {
			if s := now - k - base; s >= 0 && int(s) < len(counts) {
				sum += w * float64(atomic.LoadInt64(&counts[s]))
			}
			wsum += w
			w *= 0.5
		}
		return sum / wsum
	}
	httpc := &http.Client{Timeout: 5 * time.Second}
	checkLoad := func(url string) error {
		var doc LoadResponse
		if err := getJSONDoc(httpc, url+"/cluster/load", &doc); err != nil {
			return err
		}
		now := time.Now().Unix()
		if len(doc.Feeds) == 0 || doc.Feeds[0].Feed != "hot" {
			return fmt.Errorf("%s: hot feed not ranked first: %+v", url, doc.Feeds)
		}
		var got float64
		for _, nl := range doc.Nodes {
			if nl.Node != nodes[oi].url {
				continue
			}
			for _, fl := range nl.Loads {
				if fl.Feed == "hot" {
					got = fl.OpsPerSec
				}
			}
		}
		exp := expectedEWMA(now)
		if exp == 0 {
			return fmt.Errorf("no completed driven seconds yet")
		}
		if got < 0.75*exp || got > 1.25*exp {
			return fmt.Errorf("%s: owner hot EWMA %.1f ops/sec, driven %.1f (want within 25%%)", url, got, exp)
		}
		return nil
	}
	for i, tn := range nodes {
		var err error
		for deadline := time.Now().Add(4 * time.Second); ; {
			if err = checkLoad(tn.url); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d load view: %v", i, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	// Federation: any node's /cluster/metrics carries every live peer
	// under a node label, in parseable exposition text.
	fi := (oi + 1) % 3
	scrape := func() []obs.ParsedFamily {
		t.Helper()
		resp, err := httpc.Get(nodes[fi].url + "/cluster/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("federated scrape: status %d, err %v", resp.StatusCode, err)
		}
		fams, err := obs.ParseExposition(string(body))
		if err != nil {
			t.Fatalf("federated exposition is malformed: %v", err)
		}
		return fams
	}
	fams := scrape()
	for _, tn := range nodes {
		if v, ok := famSampleValue(fams, "grub_cluster_scrape_ok", tn.url); !ok || v != 1 {
			t.Fatalf("scrape_ok for %s = %v,%v, want 1 (all members live)", tn.url, v, ok)
		}
		if _, ok := famSampleValue(fams, "grub_gateway_feeds", tn.url); !ok {
			t.Fatalf("federated scrape lacks %s's grub_gateway_feeds sample", tn.url)
		}
	}

	// Kill a peer (neither the scraped node nor the hot owner): the next
	// federated scrape must return promptly and mark it stale.
	ki := (oi + 2) % 3
	if ki == fi {
		ki = oi // 2-of-3 overlap: fall back to killing the owner
	}
	nodes[ki].kill()
	start := time.Now()
	fams = scrape()
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("federated scrape with a dead peer took %v (must not hang)", elapsed)
	}
	if v, ok := famSampleValue(fams, "grub_cluster_scrape_ok", nodes[ki].url); !ok || v != 0 {
		t.Errorf("scrape_ok for killed %s = %v,%v, want 0", nodes[ki].url, v, ok)
	}
	if v, ok := famSampleValue(fams, "grub_cluster_scrape_ok", nodes[fi].url); !ok || v != 1 {
		t.Errorf("scrape_ok for live %s = %v,%v, want 1", nodes[fi].url, v, ok)
	}
}
