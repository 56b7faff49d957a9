package cluster

import (
	"time"

	"grub/internal/obs"
)

// maxLoadDigest caps the per-feed entries a node ships in one heartbeat,
// so load replication stays cheap even on a node hosting thousands of
// feeds: only the hottest feeds travel; the long cold tail is implied.
const maxLoadDigest = 64

// NodeLoad is one member's most recent load digest as seen from the
// answering node — the per-node half of the GET /cluster/load document.
type NodeLoad struct {
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	// AgeMS is how stale the digest is in milliseconds (0 for self,
	// -1 when the member has never reported one).
	AgeMS int64          `json:"ageMs"`
	Alive bool           `json:"alive"`
	Loads []obs.FeedLoad `json:"loads,omitempty"`
}

// nodeLoadState is the stored digest of one peer.
type nodeLoadState struct {
	loads []obs.FeedLoad
	at    time.Time
}

// loadDigest snapshots this node's own digest from the gateway's load
// tracker, truncated to the heartbeat cap.
func (n *Node) loadDigest() []obs.FeedLoad {
	d := n.local.Load().Snapshot()
	if len(d) > maxLoadDigest {
		d = d[:maxLoadDigest]
	}
	return d
}

// storePeerLoad remembers a peer's digest (heartbeats in either
// direction carry one).
func (n *Node) storePeerLoad(peer string, loads []obs.FeedLoad) {
	if peer == "" || peer == n.opts.Self {
		return
	}
	n.mu.Lock()
	n.peerLoads[peer] = nodeLoadState{loads: loads, at: time.Now()}
	n.mu.Unlock()
}

// Loads returns every member's latest load digest: this node's own,
// fresh, plus whatever each peer last piggybacked on a heartbeat. Dead
// members keep their last digest but are marked !Alive with its age, so
// a consumer can rank cluster-wide heat without mistaking a stale
// report for a live one.
func (n *Node) Loads() []NodeLoad {
	now := time.Now()
	out := make([]NodeLoad, 0, len(n.members))
	for _, m := range n.members {
		nl := NodeLoad{Node: m, Alive: n.alive(m)}
		if m == n.opts.Self {
			nl.Self = true
			nl.Loads = n.loadDigest()
		} else {
			n.mu.Lock()
			st, ok := n.peerLoads[m]
			n.mu.Unlock()
			if !ok {
				nl.AgeMS = -1
			} else {
				nl.AgeMS = now.Sub(st.at).Milliseconds()
				nl.Loads = st.loads
			}
		}
		out = append(out, nl)
	}
	return out
}
