package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/repl"
	"grub/internal/server"
)

// TestResetsReuseStreams: a node re-basing a diverged replica fetches the
// leader's anchors over its own streams and the snapshot over its
// follower's, so 20 resets against one leader leave it holding no more
// streams than those two pools keep, at most MaxIdleConnsPerHost. (A client
// built per reset would leave a stream open per reset.)
func TestResetsReuseStreams(t *testing.T) {
	const idle = 4
	cfg := server.FeedConfig{ID: "f", Shards: 2, EpochOps: 2}
	leader, x := server.NewGateway(), server.NewGateway()
	t.Cleanup(leader.Close)
	t.Cleanup(x.Close)
	for _, g := range []*server.Gateway{leader, x} {
		if err := g.CreateFeed(cfg); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(server.NewHandler(leader))
	t.Cleanup(srv.Close)
	n, err := cluster.NewNode(cluster.Options{
		Self: "http://x.invalid", Peers: []string{srv.URL}, Local: x,
		HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: idle}, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	write := func(g *server.Gateway, key string) {
		t.Helper()
		if _, err := g.Do(cfg.ID, []server.Op{{Type: "write", Key: key, Value: []byte("v-" + key)}}); err != nil {
			t.Fatal(err)
		}
	}
	write(leader, "base")
	for round := range 20 {
		// x runs ahead of the leader on both shards: a reset re-bases it.
		for i := range 4 {
			write(x, fmt.Sprintf("local%d-%d", round, i))
		}
		n.ResetDivergedShards(cfg.ID, srv.URL)
		if got, want := roots(t, x), roots(t, leader); got != want {
			t.Fatalf("round %d: x's anchors %s after the reset, leader's %s", round, got, want)
		}
	}
	if open := streamsOpen(t, srv.URL); open < 1 || open > idle {
		t.Errorf("leader holds %v streams after 20 resets, want 1..%d", open, idle)
	}
	n.Close()
	for deadline := time.Now().Add(3 * time.Second); streamsOpen(t, srv.URL) != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("leader holds %v streams after the node closed, want 0", streamsOpen(t, srv.URL))
		}
	}
}

// TestEnsureTailRebasesForkBehindOwner: a replica forked at seq 3 while
// the owner is at seq 6 is behind the owner, not ahead of it or forked at
// equal seq, yet its tail halts on the owner's seq 4. Under a new epoch,
// ensureTail re-bases the halted shard from the owner's verified image all
// the same, and the tail resumes.
func TestEnsureTailRebasesForkBehindOwner(t *testing.T) {
	cfg := server.FeedConfig{ID: "f", EpochOps: 2}
	owner, x := server.NewGateway(), server.NewGateway()
	t.Cleanup(owner.Close)
	t.Cleanup(x.Close)
	for _, g := range []*server.Gateway{owner, x} {
		if err := g.CreateFeed(cfg); err != nil {
			t.Fatal(err)
		}
	}
	batches := func(g *server.Gateway, prefix string, n int) {
		t.Helper()
		for i := range n {
			key := fmt.Sprintf("%s%d", prefix, i)
			if _, err := g.Do(cfg.ID, []server.Op{{Type: "write", Key: key, Value: []byte("v-" + key)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches(owner, "owner", 6)
	batches(x, "replica", 3)
	srv := httptest.NewServer(server.NewHandler(owner))
	t.Cleanup(srv.Close)
	n, err := cluster.NewNode(cluster.Options{
		Self: "http://x.invalid", Peers: []string{srv.URL}, Local: x, TailPoll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.StartFollowers()
	waitTail := func(state string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); n.TailStatus(cfg.ID, srv.URL).State != state; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("tail = %+v, want %s", n.TailStatus(cfg.ID, srv.URL), state)
			}
		}
	}
	n.EnsureTail(cfg.ID, srv.URL, 1)
	waitTail(repl.StateHalted)
	n.EnsureTail(cfg.ID, srv.URL, 2)
	waitTail(repl.StateTailing)
	if got, want := roots(t, x), roots(t, owner); got != want {
		t.Fatalf("replica's anchors %s after the new epoch, owner's %s", got, want)
	}
}

// roots renders a gateway's anchors for feed "f".
func roots(t *testing.T, g *server.Gateway) string {
	t.Helper()
	e, err := g.Query("f")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Roots()
	if err != nil {
		t.Fatal(err)
	}
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%+v;", r.Anchor())
	}
	return s
}

// streamsOpen scrapes the gateway at url for grub_streams_open.
func streamsOpen(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(string(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range fams {
		if fam.Name == "grub_streams_open" && len(fam.Samples) == 1 {
			return fam.Samples[0].Value
		}
	}
	t.Fatal("no grub_streams_open on /metrics")
	return 0
}
