package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"grub/internal/cluster"
)

// observerDo sends one raw request to url and returns its status, headers
// and decoded body.
func observerDo(t *testing.T, method, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, resp.Header, doc
}

// verifiedValue polls a verified read of key on url until it returns want.
func verifiedValue(t *testing.T, url, feed, key, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		vc := NewVerifyingClient(url)
		res, err := vc.Get(feed, key)
		if err == nil && res.Found && string(res.Record.Value) == want {
			if verified, _ := vc.VerifiedStats(); verified == 0 {
				t.Fatalf("%s served %s/%s without a verified proof", url, feed, key)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never served %s/%s = %q verified (last %+v, err %v)", url, feed, key, want, res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitAllAlive polls until every node sees every member alive, so that
// placement decisions agree across nodes before a test creates a feed.
func waitAllAlive(t *testing.T, nodes []*testClusterNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, tn := range nodes {
		for {
			st := tn.node.Status()
			alive := 0
			for _, m := range st.Members {
				if m.Alive {
					alive++
				}
			}
			if alive == len(st.Members) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw every member alive: %+v", tn.url, st.Members)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestFollowerModeWritesRejected pins what a follower (grubd -follow, an
// observer) refuses: a write or delete for a feed its placement map does
// not know gets 503 + Retry-After, never a local apply, and nothing
// reaches the leader. Reads of the feeds it does tail keep serving,
// verified: the observer is a real replica, not a proxy.
func TestFollowerModeWritesRejected(t *testing.T) {
	leader := startTestCluster(t, 1)[0]
	observer := startTestObserver(t, []*testClusterNode{leader})

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/feeds/w/ops", `{"ops":[{"type":"write","key":"a","value":"MQ=="}]}`},
		{http.MethodDelete, "/feeds/w", ""},
	} {
		status, hdr, doc := observerDo(t, tc.method, observer.url+tc.path, tc.body)
		if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Errorf("%s %s on the observer = HTTP %d %v (Retry-After %q), want 503", tc.method, tc.path, status, doc, hdr.Get("Retry-After"))
		}
	}
	if _, err := observer.g.Stats("w"); err == nil {
		t.Fatal("observer applied a write for an unplaced feed locally")
	}
	if _, err := leader.g.Stats("w"); err == nil {
		t.Fatal("a rejected write created the feed on the leader")
	}

	c := NewClient(leader.url)
	if err := c.CreateFeed(FeedConfig{ID: "w", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("w", []Op{{Type: "write", Key: "a", Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	waitAnchorsEqual(t, []*testClusterNode{leader, observer}, "w", 10*time.Second)
	verifiedValue(t, observer.url, "w", "a", "1")
	if h, status := getHealth(t, observer.url); status != http.StatusOK || !h.OK {
		t.Fatalf("observer healthz = HTTP %d %+v", status, h)
	}
}

// TestClientAutoFollowsLeader: a Client pointed at a follower (an
// observer) lands its creates and writes on the leader, and replication
// brings them back to the observer, verified.
func TestClientAutoFollowsLeader(t *testing.T) {
	leader := startTestCluster(t, 1)[0]
	observer := startTestObserver(t, []*testClusterNode{leader})
	waitAllAlive(t, []*testClusterNode{leader, observer})

	c := NewClient(observer.url)
	c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	if err := c.CreateFeed(FeedConfig{ID: "auto", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatalf("create via observer: %v", err)
	}
	results, err := c.Do("auto", []Op{{Type: "write", Key: "k", Value: []byte("v")}})
	if err != nil || len(results) != 1 {
		t.Fatalf("ops via observer: %v (%d results)", err, len(results))
	}
	st, err := leader.g.Stats("auto")
	if err != nil || st.Ops != 1 {
		t.Fatalf("write did not land on the leader once: %+v (err %v)", st, err)
	}
	waitAnchorsEqual(t, []*testClusterNode{leader, observer}, "auto", 10*time.Second)
	verifiedValue(t, observer.url, "auto", "k", "v")
}

// TestObserverForwardsWrites pins the observer's write contract: creates,
// writes and deletes sent to it answer 2xx and apply exactly once on the
// feed's owner; reads are served from its own verified replica.
func TestObserverForwardsWrites(t *testing.T) {
	members := startTestCluster(t, 2)
	observer := startTestObserver(t, members)
	all := append(members[:len(members):len(members)], observer)

	// A create is placed by the member it reaches; until every node sees
	// the same live members that member may disagree with the observer
	// (421) or the observer may know no member yet (503).
	waitAllAlive(t, all)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		status, _, doc := observerDo(t, http.MethodPost, observer.url+"/feeds", `{"id":"w","shards":2,"epochOps":1}`)
		if status == http.StatusCreated {
			break
		}
		if (status != http.StatusMisdirectedRequest && status != http.StatusServiceUnavailable) || time.Now().After(deadline) {
			t.Fatalf("create via observer = HTTP %d %v", status, doc)
		}
	}
	owner := members[ownerIndex(t, all, "w", 5*time.Second)]
	forwards := observer.node.Status().ForwardsTotal

	status, _, doc := observerDo(t, http.MethodPost, observer.url+"/feeds/w/ops",
		`{"ops":[{"type":"write","key":"a","value":"MQ=="}]}`)
	if status != http.StatusOK {
		t.Fatalf("write via observer = HTTP %d %v", status, doc)
	}
	// server.Client through the observer: binary batches cross the hop.
	if _, err := NewClient(observer.url).Do("w", []Op{{Type: "write", Key: "b", Value: []byte("2")}}); err != nil {
		t.Fatalf("client write via observer: %v", err)
	}
	st, err := owner.g.Stats("w")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 2 || st.Batches != 2 {
		t.Fatalf("owner applied %d ops in %d batches, want 2 in 2", st.Ops, st.Batches)
	}
	if fw := observer.node.Status().ForwardsTotal - forwards; fw != 2 {
		t.Errorf("observer forwarded %d batches, want 2", fw)
	}

	waitAnchorsEqual(t, all, "w", 10*time.Second)
	verifiedValue(t, observer.url, "w", "a", "1")
	verifiedValue(t, observer.url, "w", "b", "2")

	cs := observer.node.Status()
	if !cs.Observer || len(cs.Members) != 2 || cs.FailoversTotal != 0 {
		t.Fatalf("observer status = %+v", cs)
	}
	for _, m := range cs.Members {
		if m.URL == observer.url || m.Self {
			t.Fatalf("observer lists itself as a member: %+v", cs.Members)
		}
	}
	if ms := owner.node.Members(); len(ms) != 2 {
		t.Fatalf("member set grew to %v", ms)
	}

	status, _, doc = observerDo(t, http.MethodDelete, observer.url+"/feeds/w", "")
	if status != http.StatusOK {
		t.Fatalf("delete via observer = HTTP %d %v", status, doc)
	}
	if _, err := owner.g.Stats("w"); err == nil {
		t.Fatal("owner still hosts the feed deleted through the observer")
	}
	// The tombstone reaches the observer and drops its replica.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := observer.g.Stats("w"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("observer never dropped the deleted feed")
		}
	}
}

// TestObserverFailover: three members and an observer; the owner of a feed
// dies. A member is promoted, never the observer; the observer retargets
// its tail at the new owner and serves, verified, a write made through it
// after the failover.
func TestObserverFailover(t *testing.T) {
	members := startTestCluster(t, 3)
	observer := startTestObserver(t, members)
	all := append(members[:len(members):len(members)], observer)

	waitAllAlive(t, all)
	c := NewClient(observer.url)
	c.Retry = Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	if err := c.CreateFeed(FeedConfig{ID: "fo", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	oi := ownerIndex(t, all, "fo", 5*time.Second)
	before, _ := observer.node.Placement("fo")
	if _, err := c.Do("fo", []Op{{Type: "write", Key: "before", Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	waitAnchorsEqual(t, all, "fo", 10*time.Second)

	members[oi].kill()
	ni := ownerIndex(t, all, "fo", 10*time.Second)
	if ni == oi || all[ni] == observer {
		t.Fatalf("owner after failover = node %d (old owner %d, observer %d)", ni, oi, len(members))
	}
	if e, _ := observer.node.Placement("fo"); e.Epoch <= before.Epoch || e.Owner != all[ni].url {
		t.Fatalf("observer placement after failover = %+v (before %+v)", e, before)
	}
	var failovers int64
	for i, m := range members {
		if i != oi {
			failovers += m.node.Status().FailoversTotal
		}
	}
	if failovers != 1 || observer.node.Status().FailoversTotal != 0 {
		t.Fatalf("failovers: members %d (want 1), observer %d (want 0)", failovers, observer.node.Status().FailoversTotal)
	}

	if _, err := c.Do("fo", []Op{{Type: "write", Key: "after", Value: []byte("a")}}); err != nil {
		t.Fatalf("write via observer after failover: %v", err)
	}
	waitAnchorsEqual(t, all, "fo", 15*time.Second)
	verifiedValue(t, observer.url, "fo", "before", "b")
	verifiedValue(t, observer.url, "fo", "after", "a")
	for _, fp := range observer.node.Status().Feeds {
		if fp.Feed == "fo" && (fp.Owner != all[ni].url || fp.Tail == nil) {
			t.Fatalf("observer's feed after failover = %+v", fp)
		}
	}
}

// TestObserverLossKeepsLeaderWritable: a one-member cluster with an
// observer is the two-node setup a standalone leader and its follower
// were. Losing the observer costs the leader nothing: it is not counted
// for quorum, so writes keep landing.
func TestObserverLossKeepsLeaderWritable(t *testing.T) {
	leader := startTestCluster(t, 1)[0]
	observer := startTestObserver(t, []*testClusterNode{leader})
	c := NewClient(leader.url)
	if err := c.CreateFeed(FeedConfig{ID: "solo", Shards: 2, EpochOps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("solo", []Op{{Type: "write", Key: "k0", Value: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	waitAnchorsEqual(t, []*testClusterNode{leader, observer}, "solo", 10*time.Second)
	verifiedValue(t, observer.url, "solo", "k0", "v0")

	observer.kill()
	// Outlive the failure window, so the observer's silence is settled.
	time.Sleep(3 * testFailAfter)
	if st := leader.node.Status(); !st.Quorum || len(st.Members) != 1 {
		t.Fatalf("leader status after losing its observer = %+v", st)
	}
	for i := 1; i <= 8; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.Do("solo", []Op{{Type: "write", Key: key, Value: []byte("v")}}); err != nil {
			t.Fatalf("write %s after losing the observer: %v", key, err)
		}
	}
	verifiedValue(t, leader.url, "solo", "k8", "v")
	if rt := leader.node.RouteWrite("solo", 0, false); rt.Kind != cluster.RouteLocal {
		t.Fatalf("leader route after losing its observer = %+v", rt)
	}
}
