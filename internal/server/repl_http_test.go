package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"grub/internal/repl"
)

// TestReplEndpoints exercises the leader's log-shipping surface over HTTP:
// feed configs, log paging from a cursor, the retained-window floor and the
// snapshot bootstrap.
func TestReplEndpoints(t *testing.T) {
	g, err := NewGatewayWithOptions(GatewayOptions{ReplRetain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	if err := g.CreateFeed(FeedConfig{ID: "r", Shards: 2, EpochOps: 4, K: 3}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		ops := make([]Op, 4)
		for i := range ops {
			ops[i] = Op{Type: "write", Key: fmt.Sprintf("k%02d", b*4+i), Value: []byte("v")}
		}
		if _, err := g.Do("r", ops); err != nil {
			t.Fatal(err)
		}
	}

	rc := repl.NewClient(srv.URL)
	infos, err := rc.Feeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "r" {
		t.Fatalf("repl feeds = %+v", infos)
	}
	var cfg FeedConfig
	if err := json.Unmarshal(infos[0].Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 2 || cfg.K != 3 || cfg.EpochOps != 4 {
		t.Errorf("leader config lost fields: %+v", cfg)
	}

	for sh := 0; sh < 2; sh++ {
		page, err := rc.Log("r", sh, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if page.LeaderSeq == 0 {
			t.Fatalf("shard %d never applied a batch", sh)
		}
		if page.LeaderSeq > 4 {
			// Deep history: the window slid, cursor 0 must bootstrap.
			if !page.SnapshotRequired {
				t.Errorf("shard %d: cursor 0 below floor %d should demand a snapshot", sh, page.FloorSeq)
			}
			snap, err := rc.Snapshot("r", sh)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Seq != page.LeaderSeq || snap.Feed == nil || snap.Count == 0 {
				t.Errorf("shard %d snapshot = seq %d count %d", sh, snap.Seq, snap.Count)
			}
			continue
		}
		// Shallow history pages out in order from the cursor.
		if page.SnapshotRequired || len(page.Entries) == 0 || page.Entries[0].Seq != 1 {
			t.Errorf("shard %d page = %+v", sh, page)
		}
		for i, e := range page.Entries {
			if e.Seq != uint64(i+1) || e.Count == 0 {
				t.Errorf("shard %d entry %d = seq %d count %d", sh, i, e.Seq, e.Count)
			}
		}
	}

	// Error paths: unknown feed is 404 (ErrFeedGone), bad shard is 400.
	if _, err := rc.Log("nope", 0, 0, 1); err == nil || !strings.Contains(err.Error(), "not on leader") {
		t.Errorf("unknown feed log fetch: %v", err)
	}
	if _, err := rc.Log("r", 9, 0, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	resp, err := http.Get(srv.URL + "/repl/feeds/r/shards/9/log")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint scrapes /metrics on a one-member cluster and on an
// observer of it: the owner exports the per-feed series and tails nothing,
// the observer exports the replication gauges and stage histograms of the
// feed it tails.
func TestMetricsEndpoint(t *testing.T) {
	member := startTestCluster(t, 1)[0]
	c := NewClient(member.url)
	if err := c.CreateFeed(FeedConfig{ID: "m", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("m", []Op{{Type: "write", Key: "a", Value: []byte("1")}, {Type: "read", Key: "a"}}); err != nil {
		t.Fatal(err)
	}

	scrape := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = HTTP %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("metrics content-type = %q", ct)
		}
		return readAll(t, resp)
	}

	out := scrape(member.url)
	for _, want := range []string{
		"grub_gateway_feeds 1",
		`grub_feed_ops_total{feed="m"} 2`,
		`grub_feed_gas_total{feed="m"}`,
		`grub_feed_delivered_total{feed="m"} 1`,
		`grub_cluster_role{feed="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("owner metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "grub_repl_") {
		t.Errorf("owner exports replication gauges for a feed it does not tail:\n%s", out)
	}

	observer := startTestObserver(t, []*testClusterNode{member})
	wants := []string{
		`grub_cluster_role{feed="m"} 0`,
		`grub_repl_lag{feed="m",shard="0"} 0`,
		`grub_repl_lag{feed="m",shard="1"} 0`,
		`grub_repl_state{feed="m",shard="0"} 0`,
		`grub_repl_seq{feed="m",shard=`,
		`grub_repl_leader_seq{feed="m",shard=`,
	}
	// The observer's peer followers time their fetches into its stage
	// histograms, which exist (at count 0) for every hosted feed.
	fetched := regexp.MustCompile(`grub_stage_seconds_count\{feed="m",stage="follower_fetch"\} [1-9]`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		out = scrape(observer.url)
		missing := ""
		for _, want := range wants {
			if !strings.Contains(out, want) {
				missing = want
				break
			}
		}
		if missing == "" && !fetched.MatchString(out) {
			missing = fetched.String()
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer metrics missing %q:\n%s", missing, out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}
