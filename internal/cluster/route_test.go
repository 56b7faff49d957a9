package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
)

// stubLocal satisfies Local for routing tests that never touch an engine.
type stubLocal struct{}

func (stubLocal) EnsureFeed(string, json.RawMessage) error { return nil }
func (stubLocal) Feed(string) (repl.Feed, error)           { return nil, errors.New("stub") }
func (stubLocal) Feeds() []string                          { return nil }
func (stubLocal) Anchors(string) ([]query.RootInfo, error) { return nil, errors.New("stub") }
func (stubLocal) CloseFeed(string) error                   { return nil }
func (stubLocal) Pipeline() *obs.Pipeline                  { return nil }

func routeTestNode(t *testing.T, self string, peers ...string) *Node {
	t.Helper()
	n, err := NewNode(Options{Self: self, Peers: peers, Local: stubLocal{}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRouteWrite(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b", "http://c")
	// Quorum needs 2 of 3: pretend b answered a heartbeat just now.
	n.markAlive("http://b")

	// Unknown feed: local (the gateway 404s or the create path places it).
	if rt := n.RouteWrite("nope", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("unknown feed: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "mine", Owner: "http://a", Epoch: 2})
	if rt := n.RouteWrite("mine", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("owned feed: %+v", rt)
	}
	// A forwarded request carrying a NEWER epoch than we know proves our
	// map is stale: refuse rather than apply under a superseded view.
	if rt := n.RouteWrite("mine", 3, true); rt.Kind != RouteUnavailable {
		t.Fatalf("stale-map write: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "theirs", Owner: "http://b", Epoch: 1})
	if rt := n.RouteWrite("theirs", 0, false); rt.Kind != RouteForward || rt.Owner != "http://b" || rt.Epoch != 1 {
		t.Fatalf("unowned feed: %+v", rt)
	}
	// Already forwarded once: 421 + Leader, never a proxy chain.
	if rt := n.RouteWrite("theirs", 1, true); rt.Kind != RouteMisdirected || rt.Owner != "http://b" {
		t.Fatalf("forwarded to non-owner: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "mine", Owner: "http://a", Epoch: 3, Fenced: true})
	if rt := n.RouteWrite("mine", 0, false); rt.Kind != RouteFenced {
		t.Fatalf("fenced feed: %+v", rt)
	}

	n.pm.Merge(Entry{Feed: "gone", Owner: "http://a", Epoch: 4, Deleted: true})
	if rt := n.RouteWrite("gone", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("tombstoned feed: %+v", rt)
	}
}

// TestRouteWriteSelfFencing: a node that cannot see a member majority must
// refuse writes to feeds it owns — a deposed owner on the wrong side of a
// partition would otherwise fork history.
func TestRouteWriteSelfFencing(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b", "http://c")
	n.pm.Merge(Entry{Feed: "f", Owner: "http://a", Epoch: 1})
	// Nobody heard from: only self alive, 1 of 3 is not a majority.
	if rt := n.RouteWrite("f", 0, false); rt.Kind != RouteUnavailable {
		t.Fatalf("quorumless owner accepted write: %+v", rt)
	}
	n.markAlive("http://b")
	if rt := n.RouteWrite("f", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("quorate owner refused write: %+v", rt)
	}
	// Single-node "cluster": quorum is trivially satisfied.
	solo := routeTestNode(t, "http://solo")
	solo.pm.Merge(Entry{Feed: "f", Owner: "http://solo", Epoch: 1})
	if rt := solo.RouteWrite("f", 0, false); rt.Kind != RouteLocal {
		t.Fatalf("solo node refused write: %+v", rt)
	}
}

// TestObserverNeverOwns: an observer is left out of the member set, so no
// routing decision applies a write on it and no placement names it, while
// its own view of the members still forwards writes to their owners.
func TestObserverNeverOwns(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	obsv, err := NewNode(Options{Self: "http://o", Peers: members, Local: stubLocal{}, Observer: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := obsv.Members(); len(got) != 3 || got[0] != "http://a" || got[2] != "http://c" {
		t.Fatalf("observer members = %v, want the three members only", got)
	}
	for _, m := range members {
		obsv.markAlive(m)
	}
	if !obsv.hasQuorum() || !obsv.Status().Observer {
		t.Fatalf("observer status = %+v", obsv.Status())
	}

	// Unknown and tombstoned feeds: come back later, never apply here.
	if rt := obsv.RouteWrite("nope", 0, false); rt.Kind != RouteUnavailable {
		t.Fatalf("unknown feed on observer: %+v", rt)
	}
	obsv.pm.Merge(Entry{Feed: "gone", Owner: "http://a", Epoch: 2, Deleted: true})
	if rt := obsv.RouteWrite("gone", 0, false); rt.Kind != RouteUnavailable {
		t.Fatalf("tombstoned feed on observer: %+v", rt)
	}
	obsv.pm.Merge(Entry{Feed: "f", Owner: "http://b", Epoch: 1})
	if rt := obsv.RouteWrite("f", 0, false); rt.Kind != RouteForward || rt.Owner != "http://b" {
		t.Fatalf("owned feed on observer: %+v", rt)
	}
	if rt := obsv.RouteWrite("f", 1, true); rt.Kind != RouteMisdirected {
		t.Fatalf("forwarded write on observer: %+v", rt)
	}

	// Neither the observer's placement nor a member's ever names it: a
	// dead owner's successor is always a member, and new feeds place on
	// members.
	alive := func(string) bool { return true }
	member := routeTestNode(t, "http://a", "http://b", "http://c")
	for _, n := range []*Node{obsv, member} {
		for _, dead := range append(members, "http://o") {
			if succ := n.place("f", dead, alive); succ == "http://o" || succ == "" {
				t.Fatalf("successor of %s = %q", dead, succ)
			}
		}
	}
	for i := 0; i < 64; i++ {
		feed := fmt.Sprintf("feed-%d", i)
		if owner := obsv.PlaceFeed(feed); owner == "http://o" || owner == "" {
			t.Fatalf("observer placed %s on %q", feed, owner)
		}
	}

	// An observer alone cannot stand up: it needs members to observe.
	if _, err := NewNode(Options{Self: "http://o", Local: stubLocal{}, Observer: true}); err == nil {
		t.Fatal("observer without members accepted")
	}
}

// TestNoteOwnerKeepsHeardClaim: when a heartbeat delivers the owner's claim
// before the forwarded create returns, NoteOwner must not bump the epoch
// past the owner's, or the owner would refuse this node's forwarded writes
// as coming from a newer placement map.
func TestNoteOwnerKeepsHeardClaim(t *testing.T) {
	n := routeTestNode(t, "http://b", "http://a")
	n.pm.Merge(Entry{Feed: "f", Owner: "http://a", Epoch: 1}) // the claim, by heartbeat
	n.NoteOwner("f", "http://a")
	if rt := n.RouteWrite("f", 0, false); rt.Kind != RouteForward || rt.Epoch != 1 {
		t.Fatalf("route after NoteOwner = %+v, want a forward at the owner's epoch 1", rt)
	}
	n.NoteOwner("g", "http://a") // nothing heard yet
	if e, ok := n.pm.Get("g"); !ok || e.Owner != "http://a" || e.Epoch != 1 {
		t.Fatalf("noted entry = %+v ok=%v", e, ok)
	}
}

func TestAliveExpiry(t *testing.T) {
	n, err := NewNode(Options{
		Self: "http://a", Peers: []string{"http://b"}, Local: stubLocal{},
		Heartbeat: 10 * time.Millisecond, FailAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.alive("http://b") {
		t.Fatal("never-seen peer reported alive")
	}
	n.markAlive("http://b")
	if !n.alive("http://b") {
		t.Fatal("fresh peer reported dead")
	}
	time.Sleep(50 * time.Millisecond)
	if n.alive("http://b") {
		t.Fatal("stale peer still alive after FailAfter")
	}
	if !n.alive("http://a") {
		t.Fatal("self must always be alive")
	}
}

func TestPlaceAndClaimFeed(t *testing.T) {
	n := routeTestNode(t, "http://a", "http://b")
	n.markAlive("http://b")
	owner := n.PlaceFeed("some-feed")
	if owner == "" {
		t.Fatal("no placement with everyone alive")
	}
	n.ClaimFeed("some-feed")
	e, ok := n.pm.Get("some-feed")
	if !ok || e.Owner != "http://a" || e.Epoch != 1 {
		t.Fatalf("claimed entry = %+v ok=%v", e, ok)
	}
	// Existing placement wins over the default owner for re-creates.
	if got := n.PlaceFeed("some-feed"); got != "http://a" {
		t.Fatalf("PlaceFeed after claim = %q", got)
	}
	// Tombstone, then re-claim at a higher epoch.
	n.ReleaseFeed("some-feed")
	if e, _ := n.pm.Get("some-feed"); !e.Deleted || e.Epoch != 2 {
		t.Fatalf("tombstone = %+v", e)
	}
	n.ClaimFeed("some-feed")
	if e, _ := n.pm.Get("some-feed"); e.Deleted || e.Epoch != 3 || e.Owner != "http://a" {
		t.Fatalf("re-claimed entry = %+v", e)
	}
}
