package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/cluster"
	"grub/internal/repl"
)

// listCounter is an http.RoundTripper that counts the GET /repl/feeds
// requests (replication feed discovery) passing through it.
type listCounter struct{ lists atomic.Int64 }

func (c *listCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && r.URL.Path == "/repl/feeds" {
		c.lists.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterTailListTraffic pins the cost of tailing non-owned feeds: a
// node discovers feeds once per peer per Follower refresh, so over a window
// of N refreshes it issues at most peers × (N+1) feed-list requests,
// whatever the number of feeds it tails.
func TestClusterTailListTraffic(t *testing.T) {
	const (
		refresh   = 500 * time.Millisecond // repl.Options.Refresh's default
		refreshes = 4
		peers     = 2
	)
	for _, feeds := range []int{4, 32} {
		counter := &listCounter{}
		nodes := startTestClusterOpts(t, peers+1, func(i int, o *cluster.Options) {
			if i == 0 {
				o.HTTP = &http.Client{Transport: counter, Timeout: 5 * time.Second}
			}
		}, nil)
		c := NewClient(nodes[0].url)
		c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
		for f := 0; f < feeds; f++ {
			if err := c.CreateFeed(FeedConfig{ID: fmt.Sprintf("f%02d", f), EpochOps: 4}); err != nil {
				t.Fatal(err)
			}
		}
		// Settle: every feed node 0 does not own is tailing.
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := nodes[0].node.Status()
			settled := len(st.Feeds) == feeds
			for _, fp := range st.Feeds {
				if fp.Role != "owner" && (fp.Tail == nil || fp.Tail.State != repl.StateTailing) {
					settled = false
				}
			}
			if settled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("F=%d: node 0 never settled: %+v", feeds, st.Feeds)
			}
			time.Sleep(10 * time.Millisecond)
		}
		before := counter.lists.Load()
		time.Sleep(refreshes * refresh)
		lists := counter.lists.Load() - before
		t.Logf("F=%d: node 0 issued %d GET /repl/feeds over %d refreshes (bound %d)", feeds, lists, refreshes, peers*(refreshes+1))
		if lists > peers*(refreshes+1) {
			t.Errorf("F=%d: %d feed-list requests over %d refreshes, want <= %d", feeds, lists, refreshes, peers*(refreshes+1))
		}
		for _, tn := range nodes {
			tn.kill()
		}
	}
}

// resetCounter wraps a node's cluster.Local to count the snapshot resets
// installed through it.
type resetCounter struct {
	cluster.Local
	n *atomic.Int64
}

func (c resetCounter) Feed(id string) (repl.Feed, error) {
	f, err := c.Local.Feed(id)
	if err != nil {
		return nil, err
	}
	return countedFeed{f, c.n}, nil
}

type countedFeed struct {
	repl.Feed
	n *atomic.Int64
}

func (f countedFeed) Reset(shard int, snap *repl.Snapshot) (uint64, error) {
	f.n.Add(1)
	return f.Feed.Reset(shard, snap)
}

// TestClusterHaltResetOncePerEpoch: a non-owner whose replica ran ahead of
// the owner halts its tail rather than fork. A tail gets one verified
// snapshot reset per placement epoch: under an epoch it was already reset
// at, it stays halted (and /healthz answers 503); a new epoch for the same
// owner re-bases it exactly once, after which it converges.
func TestClusterHaltResetOncePerEpoch(t *testing.T) {
	var resets [3]atomic.Int64
	nodes := startTestClusterOpts(t, 3, func(i int, o *cluster.Options) {
		o.Local = resetCounter{o.Local, &resets[i]}
	}, nil)
	const feed = "halt"
	c0 := NewClient(nodes[0].url)
	if err := c0.CreateFeed(FeedConfig{ID: feed, Shards: 1, EpochOps: 2}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, nodes, feed, 5*time.Second)
	xi := (oi + 1) % 3
	owner, x := nodes[oi], nodes[xi]
	oc := NewClient(owner.url)
	write := func(key string) {
		t.Helper()
		if _, err := oc.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("v-" + key)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		write(fmt.Sprintf("base%d", i))
	}
	waitAnchorsEqual(t, nodes, feed, 10*time.Second)

	// pushAhead applies two batches to x's replica only, then one on the
	// owner: x's tailer hits a sequence gap, resyncs its cursor past the
	// owner's sequence and halts.
	pushAhead := func(round int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			key := fmt.Sprintf("local%d-%d", round, i)
			if _, err := x.g.Do(feed, []Op{{Type: "write", Key: key, Value: []byte("fork")}}); err != nil {
				t.Fatal(err)
			}
		}
		write(fmt.Sprintf("owner%d", round))
	}
	health := func() (int, HealthResponse) {
		t.Helper()
		resp, err := http.Get(x.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}
	waitResets := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for resets[xi].Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		waitAnchorsEqual(t, nodes, feed, 10*time.Second)
		time.Sleep(20 * 15 * time.Millisecond) // 20 heartbeats
		if got := resets[xi].Load(); got != want {
			t.Fatalf("snapshot resets = %d, want %d", got, want)
		}
	}

	// A fresh tail has not been reset yet: the first halt re-bases it once.
	pushAhead(1)
	waitResets(1)

	// The same epoch again: the tail halts and stays halted.
	pushAhead(2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, hr := health(); code == http.StatusServiceUnavailable && len(hr.Degraded) == 1 &&
			hr.Degraded[0].Feed == feed && hr.Degraded[0].State == repl.StateHalted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("x never reported its halted tail: %+v", x.node.Status().Feeds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * 15 * time.Millisecond) // 20 heartbeats under the same epoch
	if code, _ := health(); code != http.StatusServiceUnavailable {
		t.Fatalf("halted tail recovered under an unchanged epoch: /healthz %d", code)
	}
	if got := resets[xi].Load(); got != 1 {
		t.Fatalf("snapshot resets under an unchanged epoch = %d, want 1", got)
	}

	// A new epoch for the same owner: exactly one more reset, then
	// convergence and a healthy probe.
	before, _ := owner.node.Placement(feed)
	owner.node.ClaimFeed(feed)
	if after, _ := owner.node.Placement(feed); after.Epoch != before.Epoch+1 || after.Owner != owner.url {
		t.Fatalf("epoch bump: %+v -> %+v", before, after)
	}
	waitResets(2)
	if code, hr := health(); code != http.StatusOK {
		t.Fatalf("/healthz after re-base = %d %+v", code, hr)
	}
}
