package repl_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/repl"
	"grub/internal/server"
)

// swapHandler is a stable HTTP front whose backing handler can be swapped
// atomically — it models a leader process dying and restarting at the same
// address (new gateway, same URL), which is what the followers' resume
// logic has to survive.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// downHandler answers every request the way a dead process's load balancer
// would.
var downHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, `{"error":"leader down"}`, http.StatusServiceUnavailable)
})

// TestReplicatedGatewayEndToEnd is the acceptance run for the replication
// subsystem, race-enabled like every test in this repo:
//
//   - one durable leader, two followers, sustained concurrent writes;
//   - 32 VerifyingClient readers split across the two followers, every
//     Merkle proof client-checked against pinned anchors;
//   - the leader process is killed mid-load and restarted from its data
//     directory at the same address; the followers resume tailing;
//   - when the dust settles, the per-shard (seq, root, count) anchors on
//     all three nodes are identical;
//   - a third follower fed through a byte-flipping path is caught by the
//     anchor check and halts instead of serving a forked state.
func TestReplicatedGatewayEndToEnd(t *testing.T) {
	const (
		feedID      = "e2e"
		shards      = 4
		writers     = 2
		batchesPer  = 24
		opsPerBatch = 8
		readers     = 32
	)
	dir := t.TempDir()
	gopts := server.GatewayOptions{DataDir: dir, SnapshotEvery: 8}

	leader, err := server.NewGatewayWithOptions(gopts)
	if err != nil {
		t.Fatal(err)
	}
	front := &swapHandler{}
	front.set(server.NewHandler(leader))
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	leaderURL := srv.URL

	admin := server.NewClient(leaderURL)
	if err := admin.CreateFeed(server.FeedConfig{ID: feedID, Shards: shards, EpochOps: 4}); err != nil {
		t.Fatal(err)
	}

	// Two followers, each serving the authenticated read path.
	type fnode struct {
		gw  *server.Gateway
		f   *repl.Follower
		url string
	}
	startFollower := func() fnode {
		fg, _ := startGateway(t, server.GatewayOptions{})
		f := repl.NewFollower(fastOpts(leaderURL), fg.ReplTarget())
		fsrv := httptest.NewServer(server.NewHandler(fg))
		t.Cleanup(fsrv.Close)
		f.Start()
		t.Cleanup(f.Close)
		return fnode{gw: fg, f: f, url: fsrv.URL}
	}
	f1, f2 := startFollower(), startFollower()

	// Sustained writes: each writer retries through the leader outage, so
	// the full history lands eventually.
	var (
		writersWG sync.WaitGroup
		written   atomic.Int64
	)
	for wi := 0; wi < writers; wi++ {
		writersWG.Add(1)
		go func(wi int) {
			defer writersWG.Done()
			c := server.NewClient(leaderURL)
			for b := 0; b < batchesPer; b++ {
				ops := make([]server.Op, opsPerBatch)
				for i := range ops {
					ops[i] = server.Op{
						Type:  "write",
						Key:   fmt.Sprintf("w%d-k%03d", wi, (b*opsPerBatch+i)%96),
						Value: []byte(fmt.Sprintf("w%d.b%d.i%d", wi, b, i)),
					}
				}
				for {
					if _, err := c.Do(feedID, ops); err == nil {
						written.Add(1)
						break
					}
					time.Sleep(5 * time.Millisecond) // leader down: retry
				}
			}
		}(wi)
	}

	// Both followers must have discovered and created the feed before the
	// readers aim at them.
	waitFor(t, "followers discover the feed", func() bool {
		_, e1 := f1.gw.Query(feedID)
		_, e2 := f2.gw.Query(feedID)
		return e1 == nil && e2 == nil
	})

	// 32 verifying light clients split across the two followers; every
	// proof is re-verified against pinned per-shard anchors, a rejection
	// fails the run.
	stopReaders := make(chan struct{})
	var (
		readersWG sync.WaitGroup
		verified  atomic.Int64
		readErrs  = make(chan error, readers)
	)
	for ri := 0; ri < readers; ri++ {
		readersWG.Add(1)
		go func(ri int) {
			defer readersWG.Done()
			url := f1.url
			if ri%2 == 1 {
				url = f2.url
			}
			vc := server.NewVerifyingClient(url)
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%03d", i%writers, (i*7)%96)
				if i%5 == 4 {
					key = fmt.Sprintf("ghost-%d-%d", ri, i) // absence proof
				}
				if _, err := vc.Get(feedID, key); err != nil {
					readErrs <- fmt.Errorf("reader %d: %w", ri, err)
					return
				}
				if i%64 == 63 {
					if _, err := vc.Range(feedID, "w0-k000", "w0-k050"); err != nil {
						readErrs <- fmt.Errorf("reader %d range: %w", ri, err)
						return
					}
				}
				verified.Add(1)
			}
		}(ri)
	}

	// Let load build, then kill the leader process mid-flight.
	waitFor(t, "pre-kill load", func() bool { return written.Load() >= 8 })
	front.set(downHandler)
	leader.Kill()

	// The outage is visible to the followers (they keep serving reads the
	// whole time — that is the warm-standby story).
	time.Sleep(30 * time.Millisecond)

	// Restart: recover the gateway from its data directory at the same
	// address.
	leader2, err := server.NewGatewayWithOptions(gopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader2.Close)
	front.set(server.NewHandler(leader2))

	writersWG.Wait() // every batch eventually landed
	if got := written.Load(); got < writers*batchesPer {
		t.Fatalf("only %d batches written", got)
	}

	// Followers resume tailing and converge to the restarted leader's
	// exact anchors.
	deadline := time.Now().Add(waitTimeout)
	for !(rootsMatch(feedID, leader2, f1.gw) && rootsMatch(feedID, leader2, f2.gw)) {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopReaders)
	readersWG.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Errorf("verified reader rejected a proof: %v", err)
	}
	if verified.Load() == 0 {
		t.Fatal("readers verified nothing")
	}
	assertSameRoots(t, feedID, leader2, f1.gw)
	assertSameRoots(t, feedID, leader2, f2.gw)
	t.Logf("e2e: %d batches written, %d reads verified across 2 followers through a leader restart",
		written.Load(), verified.Load())

	// A third follower fed through a tampering path: the flipped batch
	// byte must be caught by the anchor check; the shard halts and the
	// node keeps serving its last verified (here: empty) state — never
	// the fork.
	tp := &tamperOnce{upstream: leaderURL}
	tp.arm()
	tamperURL := tp.serve(t)
	fg3, _ := startGateway(t, server.GatewayOptions{})
	f3 := repl.NewFollower(fastOpts(tamperURL), fg3.ReplTarget())
	f3.Start()
	t.Cleanup(f3.Close)

	// The cold node may bootstrap straight to the tip via a (tamper-proof,
	// anchor-verified) snapshot; keep writing so fresh log pages flow
	// through the tampering path until the flipped byte lands.
	halted3 := func() bool {
		feeds, _ := f3.Status()
		for _, fs := range feeds {
			if fs.ID == feedID && fs.State == repl.StateHalted {
				for _, ss := range fs.Shards {
					if ss.State == repl.StateHalted && strings.Contains(ss.Error, "diverged") {
						return true
					}
				}
			}
		}
		return false
	}
	deadline = time.Now().Add(waitTimeout)
	for i := 0; !halted3(); i++ {
		if time.Now().After(deadline) {
			feeds, _ := f3.Status()
			t.Fatalf("tampered follower never halted: %+v", feeds)
		}
		ops := []server.Op{{Type: "write", Key: fmt.Sprintf("w0-k%03d", i%96), Value: []byte(fmt.Sprintf("tamper-bait-%d", i))}}
		if _, err := admin.Do(feedID, ops); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The halted node still answers verifiably from its pre-divergence
	// state: a VerifyingClient accepts its proofs (served off the last
	// verified views), it just reports stale anchors rather than forked
	// ones.
	leaderRoots := rootsOf(t, leader2, feedID)
	f3Roots := rootsOf(t, fg3, feedID)
	halted := 0
	for i := range f3Roots {
		if f3Roots[i].Seq < leaderRoots[i].Seq {
			halted++
		}
	}
	if halted == 0 {
		t.Error("tampered follower caught up fully — the flipped byte was not refused")
	}
}

// waitFor polls cond until it holds or the shared deadline elapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
