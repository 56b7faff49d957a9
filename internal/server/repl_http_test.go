package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grub/internal/repl"
)

// startFollowerNode brings up a follower gateway + HTTP server replicating
// from leaderURL, with fast test cadences.
func startFollowerNode(t *testing.T, leaderURL string) (*Gateway, *repl.Follower, string) {
	t.Helper()
	fg := NewGateway()
	f := repl.NewFollower(repl.Options{
		Leader: leaderURL,
		Poll:   2 * time.Millisecond, Refresh: 10 * time.Millisecond,
		Pipeline: fg.Pipeline(),
	}, fg.ReplTarget())
	srv := httptest.NewServer(NewHandlerConfig(fg, HandlerConfig{Follower: f}))
	f.Start()
	t.Cleanup(srv.Close)
	t.Cleanup(fg.Close)
	t.Cleanup(f.Close)
	return fg, f, srv.URL
}

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

// TestFollowerModeWritesRejected pins the follower write contract: 403 with
// a Leader header, a Retry-After hint and a structured JSON body; reads and
// the authenticated read path keep serving.
func TestFollowerModeWritesRejected(t *testing.T) {
	leader := NewGateway()
	defer leader.Close()
	leaderSrv := httptest.NewServer(NewHandler(leader))
	defer leaderSrv.Close()
	if err := leader.CreateFeed(FeedConfig{ID: "w", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Do("w", []Op{{Type: "write", Key: "a", Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}

	_, f, followerURL := startFollowerNode(t, leaderSrv.URL)
	if err := f.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/feeds", `{"id":"new"}`},
		{http.MethodPost, "/feeds/w/ops", `{"ops":[{"type":"write","key":"a","value":"Mg=="}]}`},
		{http.MethodDelete, "/feeds/w", ""},
	} {
		req, err := http.NewRequest(tc.method, followerURL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error  string `json:"error"`
			Leader string `json:"leader"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s = HTTP %d, want 403", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Leader"); got != leaderSrv.URL {
			t.Errorf("%s %s Leader header = %q, want %q", tc.method, tc.path, got, leaderSrv.URL)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s missing Retry-After", tc.method, tc.path)
		}
		if err != nil || body.Leader != leaderSrv.URL || !strings.Contains(body.Error, "read-only follower") {
			t.Errorf("%s %s body = %+v (err %v)", tc.method, tc.path, body, err)
		}
	}

	// Reads serve locally, proofs verify: the follower is a real replica,
	// not a proxy.
	vc := NewVerifyingClient(followerURL)
	res, err := vc.Get("w", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || string(res.Record.Value) != "1" {
		t.Errorf("follower read = %+v", res)
	}
	health, err := NewClient(followerURL).Health()
	if err != nil {
		t.Fatal(err)
	}
	if health.Follower != leaderSrv.URL {
		t.Errorf("healthz follower = %q", health.Follower)
	}
}

// TestClientAutoFollowsLeader: a Client pointed at a follower must land its
// writes on the leader by following the Leader header exactly once.
func TestClientAutoFollowsLeader(t *testing.T) {
	leader := NewGateway()
	defer leader.Close()
	leaderSrv := httptest.NewServer(NewHandler(leader))
	defer leaderSrv.Close()

	_, f, followerURL := startFollowerNode(t, leaderSrv.URL)

	c := NewClient(followerURL)
	if err := c.CreateFeed(FeedConfig{ID: "auto", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatalf("create via follower: %v", err)
	}
	results, err := c.Do("auto", []Op{{Type: "write", Key: "k", Value: []byte("v")}})
	if err != nil || len(results) != 1 {
		t.Fatalf("ops via follower: %v (%d results)", err, len(results))
	}
	// The write landed on the leader, and replication brings it back to
	// the follower.
	if _, err := leader.Do("auto", []Op{{Type: "read", Key: "k"}}); err != nil {
		t.Fatalf("write did not land on leader: %v", err)
	}
	if err := f.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := NewVerifyingClient(followerURL).Get("auto", "k")
		if err == nil && res.Found && string(res.Record.Value) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-followed write never replicated back (err %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsEndpoint scrapes /metrics on a leader and a follower.
func TestMetricsEndpoint(t *testing.T) {
	leader := NewGateway()
	defer leader.Close()
	leaderSrv := httptest.NewServer(NewHandler(leader))
	defer leaderSrv.Close()
	if err := leader.CreateFeed(FeedConfig{ID: "m", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Do("m", []Op{{Type: "write", Key: "a", Value: []byte("1")}, {Type: "read", Key: "a"}}); err != nil {
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

	out := scrape(leaderSrv.URL)
	for _, want := range []string{
		"grub_gateway_feeds 1",
		"grub_repl_follower 0",
		`grub_feed_ops_total{feed="m"} 2`,
		`grub_feed_gas_total{feed="m"}`,
		`grub_feed_delivered_total{feed="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("leader metrics missing %q:\n%s", want, out)
		}
	}

	_, f, followerURL := startFollowerNode(t, leaderSrv.URL)
	if err := f.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	out = scrape(followerURL)
	for _, want := range []string{
		"grub_repl_follower 1",
		`grub_repl_lag{feed="m",shard="0"} 0`,
		`grub_repl_lag{feed="m",shard="1"} 0`,
		`grub_repl_state{feed="m",shard="0"} 0`,
		`grub_repl_seq{feed="m",shard=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("follower metrics missing %q:\n%s", want, out)
		}
	}

	// /repl/status mirrors the same health as JSON.
	resp, err := http.Get(followerURL + "/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	var status ReplStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || !status.Follower || status.Leader != leaderSrv.URL || len(status.Feeds) != 1 {
		t.Errorf("repl status = %+v (err %v)", status, err)
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

// TestWriteLogPageMatchesJSON pins writeLogPage, which encodes a page entry
// by entry, to the bytes writeJSON would send for the whole page.
func TestWriteLogPageMatchesJSON(t *testing.T) {
	entries := []repl.Entry{
		{Seq: 7, Ops: []Op{{Type: "write", Key: "<k>&", Value: []byte{0, 1, 2}}, {Type: "read", Key: "k2"}}, Count: 3, Height: 9},
		{Seq: 8, Ops: []Op{{Type: "write", Key: "k3", Value: []byte("v")}}, Count: 4, Height: 10},
	}
	entries[1].Root[0] = 0xab
	for _, page := range []repl.LogPage{
		{Entries: entries, FloorSeq: 3, LeaderSeq: 8},
		{Entries: entries[:1], FloorSeq: 1, LeaderSeq: 12, SnapshotRequired: true},
		{FloorSeq: 5, LeaderSeq: 5},
	} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, page)
		got := httptest.NewRecorder()
		writeLogPage(got, page)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("status/type %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("body\n%s\nwant\n%s", got.Body, want.Body)
		}
	}
}
