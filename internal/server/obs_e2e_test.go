package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"grub/internal/core"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the slow-op logger writes it
// from handler goroutines while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// slowRecords parses every slow-op log line in the buffer.
func slowRecords(t *testing.T, buf *syncBuffer) []SlowOpRecord {
	t.Helper()
	var out []SlowOpRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec SlowOpRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-op line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestTraceSpansSingleBatch drives one write batch through a persistent
// gateway with a client-supplied X-Grub-Trace header and asserts the whole
// pipeline — ingress, mailbox wait, WAL persist, apply, repl-log append,
// view publish — reports spans under that single trace ID in the slow-op
// log line, with the gateway echoing the ID on the response.
func TestTraceSpansSingleBatch(t *testing.T) {
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var buf syncBuffer
	srv := httptest.NewServer(NewHandlerConfig(g, HandlerConfig{
		SlowOp: time.Nanosecond, SlowOpWriter: &buf,
	}))
	defer srv.Close()
	if err := NewClient(srv.URL).CreateFeed(FeedConfig{ID: "t", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}

	const traceID = "feedbeeffeedbeef"
	body := `{"ops":[{"type":"write","key":"a","value":"MQ=="},{"type":"write","key":"b","value":"Mg=="}]}`
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/feeds/t/ops", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ops = HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Errorf("response %s = %q, want %q", obs.TraceHeader, got, traceID)
	}

	var rec SlowOpRecord
	found := false
	for _, r := range slowRecords(t, &buf) {
		if r.Trace == traceID {
			rec, found = r, true
		}
	}
	if !found {
		t.Fatalf("no slow-op record for trace %s:\n%s", traceID, buf.String())
	}
	if rec.Feed != "t" || rec.Ops != 2 || rec.DurMS <= 0 {
		t.Errorf("record = %+v", rec)
	}
	stages := map[string]bool{}
	for _, sp := range rec.Spans {
		stages[sp.Stage] = true
		if sp.Stage == obs.StageIngress {
			if sp.Shard != -1 {
				t.Errorf("ingress span shard = %d, want -1", sp.Shard)
			}
		} else if sp.Shard < 0 || sp.Shard > 1 {
			t.Errorf("span %s shard = %d, want 0..1", sp.Stage, sp.Shard)
		}
		if sp.DurUS < 0 || sp.StartUS < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	for _, want := range []string{
		obs.StageIngress, obs.StageMailbox, obs.StagePersist,
		obs.StageApply, obs.StageReplAppend, obs.StagePublish,
	} {
		if !stages[want] {
			t.Errorf("trace missing %s span; got %+v", want, rec.Spans)
		}
	}
}

// stageCountRe pulls grub_stage_seconds histogram counts out of a scrape.
var stageCountRe = regexp.MustCompile(`grub_stage_seconds_count\{feed="obs",stage="([a-z_]+)"\} (\d+)`)

// TestPipelineObservabilityE2E is the acceptance test: writes and
// authenticated reads on a durable one-member cluster, one batch through an
// observer of it, then a scrape of both nodes must show a non-empty latency
// histogram for every pipeline stage — the write path and the proof build
// on the member, the forward hop on the observer and its remote_apply half
// on the member, and the fetch/verify/apply stages on the observer — and
// the slow-op log must carry the full span breakdown under a single trace
// ID per batch.
func TestPipelineObservabilityE2E(t *testing.T) {
	g, err := NewGatewayWithOptions(GatewayOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln := listenLocal(t)
	url := "http://" + ln.Addr().String()
	var buf syncBuffer
	member := serveTestNode(t, ln, g, testNodeOptions(url, nil, g), HandlerConfig{
		SlowOp: time.Nanosecond, SlowOpWriter: &buf,
	})
	observer := startTestObserver(t, []*testClusterNode{member})

	c := NewClient(member.url)
	if err := c.CreateFeed(FeedConfig{ID: "obs", Shards: 2, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		ops := make([]Op, 4)
		for i := range ops {
			ops[i] = Op{Type: "write", Key: fmt.Sprintf("k%02d", b*4+i), Value: []byte("v")}
		}
		if _, err := c.Do("obs", ops); err != nil {
			t.Fatal(err)
		}
	}
	// Authenticated reads exercise the proof-build stage.
	if _, err := c.Get("obs", "k00"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Range("obs", "a", "z"); err != nil {
		t.Fatal(err)
	}
	// The observer may catch up by snapshot bootstrap alone, which skips
	// the verify/apply stages. Once converged it tails the log, so one
	// more batch — sent through the observer, which forwards it to the
	// member — ships back to it as a log entry through Apply.
	waitAnchorsEqual(t, []*testClusterNode{member, observer}, "obs", 30*time.Second)
	oc := NewClient(observer.url)
	oc.Retry = DefaultRetry
	if _, err := oc.Do("obs", []Op{{Type: "write", Key: "k00", Value: []byte("w")}, {Type: "write", Key: "k01", Value: []byte("w")}}); err != nil {
		t.Fatal(err)
	}

	// Union the stage histogram counts across the pair until every stage
	// has been observed: the observer records its verify stage only after
	// the batch is applied and published.
	var counts map[string]int
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		counts = map[string]int{}
		for _, url := range []string{member.url, observer.url} {
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			out := readAll(t, resp)
			resp.Body.Close()
			for _, m := range stageCountRe.FindAllStringSubmatch(out, -1) {
				n, _ := strconv.Atoi(m[2])
				counts[m[1]] += n
			}
		}
		empty := ""
		for _, stage := range obs.Stages {
			if counts[stage] == 0 {
				empty = stage
				break
			}
		}
		if empty == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stage %q histogram empty across member+observer: %v", empty, counts)
		}
	}

	// Every logged batch carries its own single trace ID with the full
	// breakdown: an ingress span plus per-shard pipeline spans.
	recs := slowRecords(t, &buf)
	if len(recs) == 0 {
		t.Fatal("no slow-op records")
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if len(rec.Trace) != 16 {
			t.Errorf("trace ID %q, want 16 hex chars", rec.Trace)
		}
		if seen[rec.Trace] {
			t.Errorf("trace ID %q reused across batches", rec.Trace)
		}
		seen[rec.Trace] = true
		stages := map[string]bool{}
		for _, sp := range rec.Spans {
			stages[sp.Stage] = true
		}
		// The forwarded batch reaches the member as remote_apply, the
		// others as ingress.
		if !stages[obs.StageIngress] && !stages[obs.StageRemoteApply] {
			t.Errorf("trace %s has neither an ingress nor a remote_apply span: %+v", rec.Trace, rec.Spans)
		}
		for _, want := range []string{
			obs.StageMailbox, obs.StagePersist,
			obs.StageApply, obs.StageReplAppend, obs.StagePublish,
		} {
			if !stages[want] {
				t.Errorf("trace %s missing %s span: %+v", rec.Trace, want, rec.Spans)
			}
		}
	}

	// The latency endpoint summarizes the same histograms per feed.
	lat, err := c.Latency("obs")
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{obs.StageIngress, obs.StageApply, obs.StagePersist, obs.StageProofBuild} {
		sl, ok := lat.Stages[stage]
		if !ok || sl.Count == 0 {
			t.Errorf("latency endpoint missing stage %q: %+v", stage, lat.Stages)
			continue
		}
		if sl.P50MS > sl.P95MS || sl.P95MS > sl.P99MS || sl.MeanMS <= 0 {
			t.Errorf("stage %q percentiles not monotone: %+v", stage, sl)
		}
	}
	if _, err := c.Latency("nope"); err == nil {
		t.Error("latency for unknown feed did not 404")
	}
}

// TestHealthzDegradedOnHaltedShard forces a divergence halt (a replicated
// batch whose anchor does not match the replayed state) and asserts the
// health surface flips: /healthz answers 503 with the halted shard named,
// the client reports OK=false without erroring, and /metrics exposes
// grub_shards_halted.
func TestHealthzDegradedOnHaltedShard(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	if err := g.CreateFeed(FeedConfig{ID: "d", EpochOps: 1}); err != nil {
		t.Fatal(err)
	}

	sf, err := g.lookup("d")
	if err != nil {
		t.Fatal(err)
	}
	// A forged anchor: the replay produces a real root, the entry claims
	// an impossible one, so the shard must refuse and halt.
	err = sf.Apply(0, repl.Entry{
		Anchor: query.Anchor{Seq: 1, Count: 999},
		Ops:    []core.Op{{Type: "write", Key: "x", Value: []byte("1")}},
	})
	if err == nil {
		t.Fatal("forged anchor accepted")
	}

	h, status := getHealth(t, srv.URL)
	if status != http.StatusServiceUnavailable {
		t.Errorf("healthz = HTTP %d, want 503", status)
	}
	if h.OK || len(h.Degraded) != 1 {
		t.Fatalf("healthz body = %+v", h)
	}
	if d := h.Degraded[0]; d.Feed != "d" || d.Shard != 0 || d.State != "halted" || d.Error == "" {
		t.Errorf("degraded = %+v", d)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, mresp)
	mresp.Body.Close()
	if !strings.Contains(out, "grub_shards_halted 1") {
		t.Errorf("metrics missing grub_shards_halted 1:\n%s", out)
	}
}
