package cluster

// ResetDivergedShards exposes resetDivergedShards to the external tests,
// which drive it against a real gateway.
func (n *Node) ResetDivergedShards(feed, leader string) { n.resetDivergedShards(feed, leader) }
