package cluster

import "grub/internal/repl"

// ResetDivergedShards exposes resetDivergedShards to the external tests,
// which drive it against a real gateway.
func (n *Node) ResetDivergedShards(feed, leader string) { n.resetDivergedShards(feed, leader) }

// EnsureTail exposes ensureTail, StartFollowers starts the node's peer
// followers without its heartbeat and reconcile loop, and TailStatus reads
// the tail of a feed from a peer: a test drives a tail by hand with them.
func (n *Node) EnsureTail(feed, leader string, epoch uint64) { n.ensureTail(feed, leader, epoch) }

func (n *Node) StartFollowers() {
	for _, f := range n.followers {
		f.Start()
	}
}

func (n *Node) TailStatus(feed, leader string) repl.FeedStatus {
	return n.followers[leader].FeedStatus(feed)
}
