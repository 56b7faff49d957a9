package cluster

import (
	"maps"
	"time"

	"grub/internal/query"
	"grub/internal/repl"
)

// MemberStatus is one member's health as seen from the answering node.
type MemberStatus struct {
	URL   string `json:"url"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
	// LastSeenMS is milliseconds since the member was last heard from
	// (-1 = never; 0 for self).
	LastSeenMS int64 `json:"lastSeenMs"`
}

// FeedPlacement is one feed's placement plus this node's role in it.
type FeedPlacement struct {
	Entry
	// Role is this node's relationship to the feed: "owner",
	// "owner-fenced", "follower", or "deleted".
	Role string `json:"role"`
	// Tail is the local replication tail's health when following.
	Tail *repl.FeedStatus `json:"tail,omitempty"`
}

// Status is the GET /cluster/status document (also folded into /healthz and
// /metrics by the HTTP layer).
type Status struct {
	Enabled        bool            `json:"enabled"`
	Observer       bool            `json:"observer,omitempty"` // never owns (grubd -follow); Members omits Self
	NodeID         string          `json:"nodeId,omitempty"`
	Self           string          `json:"self,omitempty"`
	Epoch          uint64          `json:"epoch,omitempty"`
	Quorum         bool            `json:"quorum,omitempty"`
	Members        []MemberStatus  `json:"members,omitempty"`
	Feeds          []FeedPlacement `json:"feeds,omitempty"`
	ForwardsTotal  int64           `json:"forwardsTotal,omitempty"`
	FailoversTotal int64           `json:"failoversTotal,omitempty"`
	// Conflicted maps feeds whose failover promotion was refused because
	// anchors diverged at equal seq, to the reason.
	Conflicted map[string]string `json:"conflicted,omitempty"`
}

// Status snapshots this node's view of the cluster.
func (n *Node) Status() Status {
	st := Status{
		Enabled:        true,
		Observer:       n.opts.Observer,
		NodeID:         n.opts.NodeID,
		Self:           n.opts.Self,
		Epoch:          n.pm.Epoch(),
		Quorum:         n.hasQuorum(),
		ForwardsTotal:  n.forwards.Load(),
		FailoversTotal: n.failovers.Load(),
	}
	now := time.Now()
	for _, m := range n.members {
		ms := MemberStatus{URL: m, Self: m == n.opts.Self, Alive: n.alive(m), LastSeenMS: -1}
		if ms.Self {
			ms.LastSeenMS = 0
		} else {
			n.mu.Lock()
			last, ok := n.lastSeen[m]
			n.mu.Unlock()
			if ok {
				ms.LastSeenMS = now.Sub(last).Milliseconds()
			}
		}
		st.Members = append(st.Members, ms)
	}
	n.mu.Lock()
	if len(n.conflicted) > 0 {
		st.Conflicted = make(map[string]string, len(n.conflicted))
		for k, v := range n.conflicted {
			st.Conflicted[k] = v
		}
	}
	tails := maps.Clone(n.tails)
	n.mu.Unlock()
	for _, e := range n.pm.Entries() {
		fp := FeedPlacement{Entry: e}
		switch {
		case e.Deleted:
			fp.Role = "deleted"
		case e.Owner == n.opts.Self && e.Fenced:
			fp.Role = "owner-fenced"
		case e.Owner == n.opts.Self:
			fp.Role = "owner"
		default:
			fp.Role = "follower"
			if ts, ok := tails[e.Feed]; ok {
				fs := n.followers[ts.leader].FeedStatus(e.Feed)
				fp.Tail = &fs
			}
		}
		st.Feeds = append(st.Feeds, fp)
	}
	return st
}

// anchorsEqual reports whether two anchor sets are the same anchor, shard
// by shard.
func anchorsEqual(a, b []query.RootInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Anchor().Against(b[i].Anchor()) != query.Same {
			return false
		}
	}
	return true
}
