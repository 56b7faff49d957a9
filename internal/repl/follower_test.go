package repl_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/server"
)

const waitTimeout = 30 * time.Second

// fastOpts keeps test followers snappy.
func fastOpts(leaderURL string) repl.Options {
	return repl.Options{
		Leader: leaderURL,
		Poll:   2 * time.Millisecond, Refresh: 10 * time.Millisecond,
		MaxBatches: 8,
	}
}

// startGateway serves a gateway over a test HTTP server.
func startGateway(t *testing.T, gopts server.GatewayOptions) (*server.Gateway, string) {
	t.Helper()
	g, err := server.NewGatewayWithOptions(gopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHandler(g))
	t.Cleanup(srv.Close)
	t.Cleanup(g.Close)
	return g, srv.URL
}

// writeBatches drives n write batches into one feed through the gateway.
func writeBatches(t *testing.T, g *server.Gateway, id string, n, from int) {
	t.Helper()
	for b := 0; b < n; b++ {
		ops := make([]server.Op, 8)
		for i := range ops {
			ops[i] = server.Op{Type: "write", Key: fmt.Sprintf("k%03d", (from+b)*5+i), Value: []byte(fmt.Sprintf("v%d.%d", from+b, i))}
		}
		if _, err := g.Do(id, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// rootsOf fetches a feed's per-shard anchors straight from a gateway.
func rootsOf(t *testing.T, g *server.Gateway, id string) []query.RootInfo {
	t.Helper()
	e, err := g.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := e.Roots()
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

func assertSameRoots(t *testing.T, id string, leader, follower *server.Gateway) {
	t.Helper()
	lr, fr := rootsOf(t, leader, id), rootsOf(t, follower, id)
	if len(lr) != len(fr) {
		t.Fatalf("feed %q shard counts differ: %d vs %d", id, len(lr), len(fr))
	}
	for i := range lr {
		if lr[i].Root != fr[i].Root || lr[i].Count != fr[i].Count || lr[i].Seq != fr[i].Seq {
			t.Errorf("feed %q shard %d anchors differ:\n leader   %+v\n follower %+v", id, i, lr[i], fr[i])
		}
	}
}

// rootsMatch reports whether the follower currently serves the leader's
// exact per-shard anchors (false while the feed is still being created or
// shipped — the tailers' own convergence signal is stale by one poll).
func rootsMatch(id string, leader, follower *server.Gateway) bool {
	le, err := leader.Query(id)
	if err != nil {
		return false
	}
	lr, err := le.Roots()
	if err != nil {
		return false
	}
	fe, err := follower.Query(id)
	if err != nil {
		return false
	}
	fr, err := fe.Roots()
	if err != nil || len(lr) != len(fr) {
		return false
	}
	for i := range lr {
		if lr[i].Root != fr[i].Root || lr[i].Count != fr[i].Count || lr[i].Seq != fr[i].Seq {
			return false
		}
	}
	return true
}

// waitSameRoots polls until the follower serves the leader's anchors, then
// asserts the match (for a readable failure on timeout).
func waitSameRoots(t *testing.T, id string, leader, follower *server.Gateway) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !rootsMatch(id, leader, follower) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	assertSameRoots(t, id, leader, follower)
}

// TestFollowerCatchUpAndTail covers the main path: a cold follower mirrors
// the leader's feeds (existing history and live writes), discovers feeds
// created after it started, and marks feeds deleted on the leader as gone
// without deleting local state.
func TestFollowerCatchUpAndTail(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "alpha", Shards: 4, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "alpha", 10, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
	f.Start()
	t.Cleanup(f.Close)

	if err := f.WaitConverged(waitTimeout); err != nil {
		t.Fatal(err)
	}
	waitSameRoots(t, "alpha", leader, fg)

	// Live tail: more writes after convergence.
	writeBatches(t, leader, "alpha", 6, 10)
	waitSameRoots(t, "alpha", leader, fg)

	// A feed created on the leader mid-flight is discovered and
	// replicated.
	if err := leader.CreateFeed(server.FeedConfig{ID: "beta", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "beta", 4, 0)
	waitSameRoots(t, "beta", leader, fg)

	// Deleting beta on the leader marks it gone on the follower; the
	// replicated state stays readable locally.
	if err := leader.CloseFeed("beta"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTimeout)
	for {
		feeds, _ := f.Status()
		gone := false
		for _, fs := range feeds {
			if fs.ID == "beta" && fs.State == repl.StateGone {
				gone = true
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beta never marked gone: %+v", feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := fg.Query("beta"); err != nil {
		t.Errorf("gone feed's local state should stay readable: %v", err)
	}

	// Recreating beta on the leader resumes replication instead of leaving
	// it parked as gone. The leader's fresh history restarts at seq 0
	// while the follower's retained beta is ahead, so the tailers halt
	// with a clear divergence (the operator deletes the stale local feed)
	// — the point is the feed is watched again, not silently stuck.
	if err := leader.CreateFeed(server.FeedConfig{ID: "beta", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(waitTimeout)
	for {
		feeds, _ := f.Status()
		var betaState string
		for _, fs := range feeds {
			if fs.ID == "beta" {
				betaState = fs.State
			}
		}
		if betaState == repl.StateHalted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recreated beta never resumed tracking: %+v", feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerSnapshotBootstrap starts a follower against a leader whose
// retained log window is far behind its history: catch-up must go through
// the verified snapshot, then tail the remaining log.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{ReplRetain: 3})
	if err := leader.CreateFeed(server.FeedConfig{ID: "deep", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "deep", 20, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
	f.Start()
	t.Cleanup(f.Close)
	if err := f.WaitConverged(waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRoots(t, "deep", leader, fg)

	// The replicated state serves verified reads: spot-check one proof.
	e, err := fg.Query("deep")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Get("k005")
	if err != nil {
		t.Fatal(err)
	}
	if err := query.VerifyGet("k005", res); err != nil {
		t.Errorf("replicated read failed verification: %v", err)
	}
}

// TestFollowerConfigMismatchFails: a local feed with the same ID but a
// different config must refuse to adopt the leader's log.
func TestFollowerConfigMismatchFails(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "clash", Shards: 4}); err != nil {
		t.Fatal(err)
	}
	fg, _ := startGateway(t, server.GatewayOptions{})
	if err := fg.CreateFeed(server.FeedConfig{ID: "clash", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
	f.Start()
	t.Cleanup(f.Close)

	deadline := time.Now().Add(waitTimeout)
	for {
		feeds, _ := f.Status()
		if len(feeds) == 1 && feeds[0].State == repl.StateFailed &&
			strings.Contains(feeds[0].Error, "different config") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("config mismatch never surfaced: %+v", feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tamperOnce wraps a leader handler and flips one byte inside the first
// write op of the first log entry it serves after arming — a compromised
// leader (or path) shipping a corrupted batch.
type tamperOnce struct {
	next  http.Handler
	mu    sync.Mutex
	armed bool
	done  bool
}

func (tp *tamperOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tp.mu.Lock()
	active := tp.armed && !tp.done
	tp.mu.Unlock()
	if !active || !strings.HasSuffix(r.URL.Path, "/log") {
		tp.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	tp.next.ServeHTTP(rec, r)
	var page repl.LogPage
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &page) == nil && len(page.Entries) > 0 {
	flip:
		for ei := range page.Entries {
			for oi := range page.Entries[ei].Ops {
				if page.Entries[ei].Ops[oi].Type == "write" && len(page.Entries[ei].Ops[oi].Value) > 0 {
					page.Entries[ei].Ops[oi].Value[0] ^= 0x01 // the flipped byte
					tp.mu.Lock()
					tp.done = true
					tp.mu.Unlock()
					break flip
				}
			}
		}
		body, _ := json.Marshal(page)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

func (tp *tamperOnce) arm() {
	tp.mu.Lock()
	tp.armed = true
	tp.mu.Unlock()
}

// TestFollowerTamperedBatchHaltsShard ships one tampered batch: the anchor
// check must catch the flipped byte, halt that shard's replication, and the
// follower must keep serving its last verified state instead of the fork.
func TestFollowerTamperedBatchHaltsShard(t *testing.T) {
	leaderGW, err := server.NewGatewayWithOptions(server.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaderGW.Close)
	tp := &tamperOnce{next: server.NewHandler(leaderGW)}
	srv := httptest.NewServer(tp)
	t.Cleanup(srv.Close)

	if err := leaderGW.CreateFeed(server.FeedConfig{ID: "t", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leaderGW, "t", 5, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	f := repl.NewFollower(fastOpts(srv.URL), fg.ReplTarget())
	f.Start()
	t.Cleanup(f.Close)
	if err := f.WaitConverged(waitTimeout); err != nil {
		t.Fatal(err)
	}
	cleanRoots := rootsOf(t, fg, "t")

	tp.arm()
	writeBatches(t, leaderGW, "t", 1, 5)

	deadline := time.Now().Add(waitTimeout)
	for {
		feeds, _ := f.Status()
		if len(feeds) == 1 && feeds[0].State == repl.StateHalted {
			ss := feeds[0].Shards[0]
			if !strings.Contains(ss.Error, "diverged") {
				t.Fatalf("halt without divergence detail: %+v", ss)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tampered batch never halted the shard: %+v", feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The forked state was never published: the follower still serves the
	// pre-tamper anchors, and they still verify.
	after := rootsOf(t, fg, "t")
	if after[0].Root != cleanRoots[0].Root || after[0].Seq != cleanRoots[0].Seq {
		t.Errorf("follower published past the divergence: %+v vs %+v", after[0], cleanRoots[0])
	}
	e, _ := fg.Query("t")
	res, err := e.Get("k000")
	if err != nil {
		t.Fatal(err)
	}
	if err := query.VerifyGet("k000", res); err != nil {
		t.Errorf("pre-tamper state stopped verifying: %v", err)
	}
}

// TestFollowerCrashRestartMidCatchUp kills a persistent follower at three
// cut points during catch-up; each restart must resume from the follower's
// own WAL and cursor and converge to the leader's roots. (The satellite
// case of the replication design: follower durability composes with
// replication without any extra protocol.)
func TestFollowerCrashRestartMidCatchUp(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "f", Shards: 2, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	const history = 30
	writeBatches(t, leader, "f", history, 0)

	for _, cut := range []int{2, 8, 20} {
		cut := cut
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			// Phase 1: catch up until some shard passes the cut point,
			// then crash (no final snapshot, no flush).
			fg, err := server.NewGatewayWithOptions(server.GatewayOptions{DataDir: dir, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
			f.Start()
			deadline := time.Now().Add(waitTimeout)
			for {
				feeds, _ := f.Status()
				reached := false
				for _, fs := range feeds {
					for _, ss := range fs.Shards {
						if ss.Seq >= uint64(cut) {
							reached = true
						}
					}
				}
				if reached {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("cut point %d never reached: %+v", cut, feeds)
				}
				time.Sleep(time.Millisecond)
			}
			f.Close()
			fg.Kill() // simulated crash

			// Phase 2: recover from the follower's own store and resume.
			fg2, err := server.NewGatewayWithOptions(server.GatewayOptions{DataDir: dir, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fg2.Close)
			f2 := repl.NewFollower(fastOpts(leaderURL), fg2.ReplTarget())
			f2.Start()
			t.Cleanup(f2.Close)
			if err := f2.WaitConverged(waitTimeout); err != nil {
				t.Fatal(err)
			}
			assertSameRoots(t, "f", leader, fg2)
		})
	}
}

// TestFollowerAheadOfLeaderHalts: a follower whose local history is ahead
// of the leader (wrong leader, local writes) must halt, not fork.
func TestFollowerAheadOfLeaderHalts(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	if err := leader.CreateFeed(server.FeedConfig{ID: "x", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, leader, "x", 2, 0)

	fg, _ := startGateway(t, server.GatewayOptions{})
	if err := fg.CreateFeed(server.FeedConfig{ID: "x", Shards: 1, EpochOps: 8}); err != nil {
		t.Fatal(err)
	}
	writeBatches(t, fg, "x", 5, 0) // local history ahead of the leader's 2

	f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
	f.Start()
	t.Cleanup(f.Close)
	deadline := time.Now().Add(waitTimeout)
	for {
		feeds, _ := f.Status()
		if len(feeds) == 1 && feeds[0].State == repl.StateHalted {
			if !strings.Contains(feeds[0].Shards[0].Error, "ahead of leader") {
				t.Fatalf("unexpected halt detail: %+v", feeds[0].Shards[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower-ahead never halted: %+v", feeds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerFollowSet: a follower restricted with Follow replicates only
// the followed feeds, picks up a newly followed one at once rather than at
// its next refresh, and Unfollow stops a feed and forgets it while keeping
// the local replica.
func TestFollowerFollowSet(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	for _, id := range []string{"a", "b", "c"} {
		if err := leader.CreateFeed(server.FeedConfig{ID: id, Shards: 2, EpochOps: 8}); err != nil {
			t.Fatal(err)
		}
		writeBatches(t, leader, id, 3, 0)
	}

	fg, _ := startGateway(t, server.GatewayOptions{})
	opts := fastOpts(leaderURL)
	opts.Refresh = time.Hour // only Follow's wake-up can start a feed
	f := repl.NewFollower(opts, fg.ReplTarget())
	f.Follow()
	f.Start()
	t.Cleanup(f.Close)
	if err := f.WaitConverged(waitTimeout); err != nil {
		t.Fatal(err)
	}
	if ids := fg.Feeds(); len(ids) != 0 {
		t.Fatalf("follower restricted to nothing replicated %v", ids)
	}

	f.Follow("a", "b")
	waitSameRoots(t, "a", leader, fg)
	waitSameRoots(t, "b", leader, fg)

	f.Unfollow("a")
	if fs := f.FeedStatus("a"); fs.State != repl.StateSyncing || len(fs.Shards) != 0 {
		t.Fatalf("unfollowed feed status = %+v", fs)
	}
	stale := rootsOf(t, fg, "a")
	writeBatches(t, leader, "a", 2, 3)
	writeBatches(t, leader, "b", 2, 3)
	waitSameRoots(t, "b", leader, fg)
	if got := rootsOf(t, fg, "a"); got[0] != stale[0] || got[1] != stale[1] {
		t.Fatalf("unfollowed feed kept replicating: %+v -> %+v", stale, got)
	}
	feeds, _ := f.Status()
	if len(feeds) != 1 || feeds[0].ID != "b" {
		t.Fatalf("tracked feeds = %+v, want only b", feeds)
	}
	if _, err := fg.Query("c"); err == nil {
		t.Fatal("feed c was never followed but exists locally")
	}
}

// TestFollowerFollowChurn races Follow and Unfollow from several goroutines
// against the running manager and tailers (run it under -race): no tailer
// may outlive its Unfollow, and once every feed is followed for good the
// follower converges on all of them.
func TestFollowerFollowChurn(t *testing.T) {
	leader, leaderURL := startGateway(t, server.GatewayOptions{})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if err := leader.CreateFeed(server.FeedConfig{ID: id, Shards: 2, EpochOps: 8}); err != nil {
			t.Fatal(err)
		}
		writeBatches(t, leader, id, 3, 0)
	}
	fg, _ := startGateway(t, server.GatewayOptions{})
	f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
	f.Follow()
	f.Start()
	t.Cleanup(f.Close)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(w+i)%len(ids)]
				f.Follow(id)
				time.Sleep(time.Millisecond)
				f.Unfollow(id)
			}
		}(w)
	}
	wg.Wait()
	if feeds, _ := f.Status(); len(feeds) != 0 {
		t.Fatalf("feeds still tracked after every Unfollow: %+v", feeds)
	}
	f.Follow(ids...)
	for _, id := range ids {
		writeBatches(t, leader, id, 2, 3)
		waitSameRoots(t, id, leader, fg)
	}
}
