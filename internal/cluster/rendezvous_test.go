package cluster

import (
	"fmt"
	"slices"
	"testing"
)

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%d:8080", i)
	}
	return out
}

// placementNode builds an unstarted member node over members, with self
// the member at index self and the others as its peers in the given order.
func placementNode(t *testing.T, members []string, self int) *Node {
	t.Helper()
	var peers []string
	for i, m := range members {
		if i != self {
			peers = append(peers, m)
		}
	}
	return routeTestNode(t, members[self], peers...)
}

func TestRendezvousOwnerDeterministic(t *testing.T) {
	members := testMembers(3)
	a := placementNode(t, members, 0)
	b := placementNode(t, []string{members[2], members[0], members[1]}, 0) // order must not matter
	for i := 0; i < 200; i++ {
		feed := fmt.Sprintf("feed-%d", i)
		if got, want := a.place(feed, "", nil), b.place(feed, "", nil); got != want {
			t.Fatalf("owner(%q) differs by member order: %q vs %q", feed, got, want)
		}
		if a.place(feed, "", nil) == "" {
			t.Fatalf("owner(%q) empty with members", feed)
		}
	}
}

// TestRendezvousOwnerSpread: 400 feeds over 4 members place 91, 100, 103
// and 106 feeds (an even split is 100 ± 9, one standard deviation); the
// bound, 80 to 120, rejects one member hoarding or starving.
func TestRendezvousOwnerSpread(t *testing.T) {
	n := placementNode(t, testMembers(4), 0)
	counts := map[string]int{}
	const feeds = 400
	for i := 0; i < feeds; i++ {
		counts[n.place(fmt.Sprintf("feed-%d", i), "", nil)]++
	}
	if len(counts) != 4 {
		t.Fatalf("placement used %d of 4 members: %v", len(counts), counts)
	}
	for m, c := range counts {
		if c < feeds/5 || c > feeds*3/10 {
			t.Fatalf("member %s got %d of %d feeds: %v", m, c, feeds, counts)
		}
	}
}

func TestRendezvousOwnerFilter(t *testing.T) {
	n := placementNode(t, testMembers(3), 0)
	feed := "hot-feed"
	full := n.place(feed, "", nil)
	alive := func(m string) bool { return m != full }
	failedOver := n.place(feed, "", alive)
	if failedOver == full || failedOver == "" {
		t.Fatalf("owner with %q dead = %q", full, failedOver)
	}
	if got := n.place(feed, full, nil); got != failedOver {
		t.Fatalf("successor of %q = %q, want the owner with it dead, %q", full, got, failedOver)
	}
	if got := n.place(feed, "", func(string) bool { return false }); got != "" {
		t.Fatalf("owner with no member alive = %q, want empty", got)
	}
	if got := n.place(feed, full, func(m string) bool { return m == full }); got != "" {
		t.Fatalf("successor with only the dead owner alive = %q, want empty", got)
	}
}

// TestRendezvousSuccessorSpreads: when a member dies, its feeds fail over
// to every survivor, not to one; every member order, and an observer,
// computes the same owner and successor for each feed; and the observer is
// never either.
func TestRendezvousSuccessorSpreads(t *testing.T) {
	const feeds = 400
	for size := 3; size <= 5; size++ {
		members := testMembers(size)
		reversed := slices.Clone(members)
		slices.Reverse(reversed)
		nodes := []*Node{placementNode(t, members, 0), placementNode(t, reversed, 1)}
		obsv, err := NewNode(Options{Self: "http://observer:8080", Peers: reversed, Local: stubLocal{}, Observer: true})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, obsv)
		for _, dead := range members {
			alive := func(m string) bool { return m != dead }
			got := map[string]int{} // survivor -> dead member's feeds it takes
			for i := 0; i < feeds; i++ {
				feed := fmt.Sprintf("feed-%d", i)
				owner := nodes[0].place(feed, "", nil)
				succ := nodes[0].place(feed, owner, alive)
				for _, n := range nodes[1:] {
					if o, s := n.place(feed, "", nil), n.place(feed, owner, alive); o != owner || s != succ {
						t.Fatalf("%d members, %s: %s places it on %q with successor %q; %s on %q with %q",
							size, feed, n.Self(), o, s, nodes[0].Self(), owner, succ)
					}
				}
				if owner == obsv.Self() || succ == obsv.Self() || succ == owner || succ == "" {
					t.Fatalf("%d members, %s: owner %q, successor %q", size, feed, owner, succ)
				}
				if owner == dead {
					got[succ]++
				}
			}
			if len(got) != size-1 {
				t.Errorf("%d members: %s's feeds fail over to %d of %d survivors: %v", size, dead, len(got), size-1, got)
			}
		}
	}
}
