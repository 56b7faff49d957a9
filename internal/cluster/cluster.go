// Package cluster turns N independent grubd gateways into a self-routing
// cluster: feeds are placed across nodes by consistent hashing, every node
// accepts every request (non-owners transparently forward writes to the
// owner and serve verified reads from their local replica), ownership moves
// live via verified-snapshot migration, and a dead owner's feeds fail over
// to a deterministic, anchor-verified successor.
//
// The design deliberately avoids a consensus log. Three pieces make that
// safe:
//
//   - The replicated placement map (feed -> owner, per-entry fencing epoch)
//     is merged entry-wise by epoch on every heartbeat: merging is
//     commutative/associative/idempotent, so full-mesh heartbeat exchange
//     converges without coordination. Every ownership change — migration
//     fence, migration flip, failover promotion — bumps the feed's epoch,
//     and every forwarded write carries the sender's epoch, so a node with
//     a stale map can neither accept nor route a write past a newer
//     decision.
//   - Writes require a heartbeat quorum: a node accepts writes for a feed
//     it owns only while it can see a strict majority of the static member
//     set. A minority partition (including a deposed owner that has not yet
//     heard of its succession) fences itself instead of forking — the CP
//     choice.
//   - State transfer is never trusted: followers tail the owner's
//     replication log verifying every batch against the owner's post-apply
//     (seq, root, count) anchors (internal/repl), failover candidates prove
//     against the surviving nodes' anchors that they are not behind before
//     promoting, and migration flips ownership only once the target's
//     anchors equal the fenced source's exactly.
//
// The ring (consistent hashing over the static member URLs) supplies only
// defaults and the failover order — which node a new feed lands on, and who
// is next in line when an owner dies. The placement map is authoritative.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
)

// Forwarding headers. Every proxied request carries the sender's placement
// epoch for the feed (EpochHeader) and a hop marker (ForwardedHeader) so a
// routing disagreement surfaces as one 421 with a Leader header instead of
// a proxy loop.
const (
	EpochHeader     = "X-Grub-Cluster-Epoch"
	ForwardedHeader = "X-Grub-Cluster-Forwarded"
)

// Sentinel errors surfaced on the /cluster/* admin surface.
var (
	// ErrNotOwner: this node does not own the feed (the caller should ask
	// the owner).
	ErrNotOwner = errors.New("cluster: not the feed owner")
	// ErrBusy: the feed is mid-migration (fenced); retry later.
	ErrBusy = errors.New("cluster: feed migration in progress")
	// ErrUnknownMember: the named node is not in the cluster member list.
	ErrUnknownMember = errors.New("cluster: unknown member")
	// ErrNoQuorum: this node cannot see a majority of the members.
	ErrNoQuorum = errors.New("cluster: no heartbeat quorum")
	// ErrDiverged: anchors disagree at equal sequence — promotion or
	// migration refused rather than risking a fork.
	ErrDiverged = errors.New("cluster: anchors diverged at equal seq")
)

// Local is the cluster node's view of its co-located gateway: the engine
// feeds replicate into plus the handful of read-only hooks placement and
// promotion need. server.Gateway adapts itself to it (Gateway.ClusterLocal).
type Local interface {
	repl.Target
	// Feeds lists the locally hosted feed IDs.
	Feeds() []string
	// Anchors returns a feed's per-shard trust anchors (the same roots the
	// authenticated read path advertises).
	Anchors(feed string) ([]query.RootInfo, error)
	// CloseFeed drops a local feed (tombstoned placement entries).
	CloseFeed(feed string) error
}

// Options configures a Node.
type Options struct {
	// Self is this node's advertised base URL ("http://host:port") — its
	// identity on the ring and in the placement map.
	Self string
	// NodeID is a display name (default: Self).
	NodeID string
	// Peers are the other members' base URLs (the static seed list; Self
	// is filtered out if present). Every member must be given the same
	// full list — membership is static, which is what makes the quorum
	// rule and the failover order deterministic.
	Peers []string
	// Local is the co-located gateway.
	Local Local
	// StatePath persists the placement map ("" = memory only); a restart
	// resumes from the last known placement instead of re-deriving it.
	StatePath string
	// Heartbeat is the heartbeat/reconcile cadence (default 250ms).
	Heartbeat time.Duration
	// FailAfter is how long a member may go unheard-from before it is
	// declared dead (default 4x Heartbeat).
	FailAfter time.Duration
	// TailPoll is the replication tailers' poll floor (default 20ms).
	TailPoll time.Duration
	// MoveTimeout bounds one live migration (default 30s).
	MoveTimeout time.Duration
	// HTTP overrides the transport for heartbeats, anchor fetches and
	// tailers (default: 5s timeout).
	HTTP *http.Client
	// LoadDigest, when non-nil, supplies this node's per-feed load
	// digest (hottest feeds first); it piggybacks on every heartbeat so
	// each member holds a cluster-wide hot-feed view.
	LoadDigest func() []obs.FeedLoad
}

func (o Options) withDefaults() Options {
	if o.NodeID == "" {
		o.NodeID = o.Self
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 4 * o.Heartbeat
	}
	if o.TailPoll <= 0 {
		o.TailPoll = 20 * time.Millisecond
	}
	if o.MoveTimeout <= 0 {
		o.MoveTimeout = 30 * time.Second
	}
	if o.HTTP == nil {
		o.HTTP = &http.Client{Timeout: 5 * time.Second}
	}
	return o
}

// tailState records which peer a non-owned feed is tailed from and the
// newest epoch its local replica was re-based at.
type tailState struct {
	leader string // the feed's owner, or the catch-up peer tryPromote picked
	// resetEpoch is the newest epoch a halted tail was auto-reset at; one
	// verified snapshot reset is allowed per epoch, so an ownership change
	// clears stale local history but a genuinely divergent leader cannot
	// keep a node resetting forever.
	resetEpoch uint64
}

// Node is one cluster member: it heartbeats the static member set, merges
// placement maps, tails every feed it does not own from that feed's owner
// (through one repl.Follower per peer, following exactly the feeds tailed
// from that peer), and runs the failover and migration state machines for
// the feeds it is responsible for.
type Node struct {
	opts    Options
	members []string // sorted, includes Self
	ring    *Ring
	pm      *Map
	local   Local
	client  *Client

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once

	forwards  atomic.Int64 // proxied writes (counted by the HTTP layer)
	failovers atomic.Int64 // successful self-promotions

	followers map[string]*repl.Follower // peer -> its Follower; built in NewNode

	mu         sync.Mutex
	lastSeen   map[string]time.Time
	tails      map[string]tailState
	conflicted map[string]string        // feed -> reason promotion is refused
	peerLoads  map[string]nodeLoadState // peer -> last piggybacked load digest
}

// NewNode builds an unstarted cluster node.
func NewNode(opts Options) (*Node, error) {
	opts = opts.withDefaults()
	if opts.Self == "" {
		return nil, errors.New("cluster: Options.Self (advertised URL) required")
	}
	if opts.Local == nil {
		return nil, errors.New("cluster: Options.Local (gateway adapter) required")
	}
	seen := map[string]bool{opts.Self: true}
	members := []string{opts.Self}
	for _, p := range opts.Peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		members = append(members, p)
	}
	sort.Strings(members)
	pm, err := NewMap(opts.StatePath)
	if err != nil {
		return nil, err
	}
	followers := make(map[string]*repl.Follower, len(members)-1)
	for _, p := range members {
		if p != opts.Self {
			f := repl.NewFollower(repl.Options{Leader: p, HTTP: opts.HTTP, Poll: opts.TailPoll}, opts.Local)
			f.Follow() // none until ensureTail names them
			followers[p] = f
		}
	}
	return &Node{
		opts:       opts,
		members:    members,
		ring:       NewRing(members),
		pm:         pm,
		local:      opts.Local,
		client:     &Client{HTTP: opts.HTTP},
		stop:       make(chan struct{}),
		lastSeen:   make(map[string]time.Time),
		followers:  followers,
		tails:      make(map[string]tailState),
		conflicted: make(map[string]string),
		peerLoads:  make(map[string]nodeLoadState),
	}, nil
}

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.opts.Self }

// ID returns this node's display name.
func (n *Node) ID() string { return n.opts.NodeID }

// Members returns the static member URLs, sorted (includes Self).
func (n *Node) Members() []string { return append([]string(nil), n.members...) }

// Epoch returns the highest placement epoch this node knows (the "ring
// epoch").
func (n *Node) Epoch() uint64 { return n.pm.Epoch() }

// Placement returns a feed's placement entry.
func (n *Node) Placement(feed string) (Entry, bool) { return n.pm.Get(feed) }

// CountForward credits one proxied write (the HTTP layer calls it).
func (n *Node) CountForward() { n.forwards.Add(1) }

// HTTPClient returns the node's HTTP client (the server layer reuses it
// for forwarded writes).
func (n *Node) HTTPClient() *http.Client { return n.opts.HTTP }

// Start launches the heartbeat/reconcile loop and the peer followers.
// Idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		for _, f := range n.followers {
			f.Start()
		}
		n.wg.Add(1)
		go n.run()
	})
}

// Close stops the loop and every replication tail, and waits for them.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.mu.Lock()
	clear(n.tails)
	n.mu.Unlock()
	for _, f := range n.followers {
		f.Close()
	}
}

func (n *Node) run() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.Heartbeat)
	defer t.Stop()
	for {
		n.heartbeatOnce()
		n.reconcile()
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
	}
}

// peers returns the member URLs other than Self.
func (n *Node) peers() []string {
	out := make([]string, 0, len(n.members)-1)
	for _, m := range n.members {
		if m != n.opts.Self {
			out = append(out, m)
		}
	}
	return out
}

// markAlive records a successful heartbeat exchange with a member (either
// direction counts: receiving a peer's heartbeat proves it is up just as
// well as it answering ours).
func (n *Node) markAlive(url string) {
	n.mu.Lock()
	n.lastSeen[url] = time.Now()
	n.mu.Unlock()
}

// alive reports whether a member was heard from within FailAfter. Self is
// always alive.
func (n *Node) alive(url string) bool {
	if url == n.opts.Self {
		return true
	}
	n.mu.Lock()
	last, ok := n.lastSeen[url]
	n.mu.Unlock()
	return ok && time.Since(last) <= n.opts.FailAfter
}

// hasQuorum reports whether this node can see a strict majority of the
// static member set (counting itself). Writes and failover promotions
// require it; a single-node cluster trivially has it.
func (n *Node) hasQuorum() bool {
	alive := 0
	for _, m := range n.members {
		if n.alive(m) {
			alive++
		}
	}
	return alive*2 > len(n.members)
}

// heartbeatOnce exchanges heartbeats (and placement maps) with every peer
// in parallel.
func (n *Node) heartbeatOnce() {
	hb := Heartbeat{From: n.opts.Self, NodeID: n.opts.NodeID, Entries: n.pm.Entries(), Load: n.loadDigest()}
	var wg sync.WaitGroup
	for _, p := range n.peers() {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			reply, err := n.client.Heartbeat(p, hb)
			if err != nil {
				return
			}
			n.markAlive(p)
			n.pm.MergeAll(reply.Entries)
			n.storePeerLoad(p, reply.Load)
		}(p)
	}
	wg.Wait()
}

// pushEntries sends specific entries to one peer immediately (migration
// flips and promotions should not wait out a heartbeat tick).
func (n *Node) pushEntries(peer string, entries []Entry) {
	if _, err := n.client.Heartbeat(peer, Heartbeat{From: n.opts.Self, NodeID: n.opts.NodeID, Entries: entries, Load: n.loadDigest()}); err == nil {
		n.markAlive(peer)
	}
}

// HandleHeartbeat answers one inbound heartbeat: merge the sender's map,
// mark it alive, return ours. The HTTP layer exposes it as
// POST /cluster/heartbeat.
func (n *Node) HandleHeartbeat(hb Heartbeat) HeartbeatReply {
	if hb.From != "" && hb.From != n.opts.Self {
		n.markAlive(hb.From)
		n.storePeerLoad(hb.From, hb.Load)
	}
	n.pm.MergeAll(hb.Entries)
	return HeartbeatReply{NodeID: n.opts.NodeID, Self: n.opts.Self, Entries: n.pm.Entries(), Load: n.loadDigest()}
}

// reconcile drives the node's obligations from the placement map: claim
// recovered feeds nobody owns, tail every feed someone else owns, promote
// when we are the successor of a dead owner, drop tombstoned feeds.
func (n *Node) reconcile() {
	entries := n.pm.Entries()
	known := make(map[string]bool, len(entries))
	for _, e := range entries {
		known[e.Feed] = true
	}
	// Recovered-but-unplaced feeds (all nodes restarted, empty maps): the
	// ring-default owner — one deterministic node — claims each.
	for _, id := range n.local.Feeds() {
		if !known[id] && n.ring.Owner(id, nil) == n.opts.Self {
			n.pm.Merge(Entry{Feed: id, Owner: n.opts.Self, Epoch: 1})
		}
	}
	for _, e := range entries {
		switch {
		case e.Deleted:
			n.dropFeed(e.Feed)
		case e.Owner == n.opts.Self:
			n.stopTail(e.Feed)
		default:
			n.followOrPromote(e)
		}
	}
}

// followOrPromote handles a feed someone else owns: normally ensure a tail
// against the owner; when the owner is dead and we are its ring successor,
// run the promotion state machine instead.
func (n *Node) followOrPromote(e Entry) {
	if !n.alive(e.Owner) && n.hasQuorum() {
		if succ := n.ring.Successor(e.Owner, n.alive); succ == n.opts.Self {
			if n.tryPromote(e) {
				return
			}
		}
	}
	n.ensureTail(e.Feed, e.Owner, e.Epoch)
}

// tryPromote is one step of the failover state machine for a feed whose
// owner is dead and whose deterministic successor is this node. It promotes
// only after proving, against every surviving node's anchors, that this
// node is not behind; while behind, it retargets the feed's tail at the
// most advanced survivor to catch up first. It returns true when it has
// taken over tail management for this round (promotion done or catch-up in
// progress).
func (n *Node) tryPromote(e Entry) bool {
	la, err := n.local.Anchors(e.Feed)
	if err != nil {
		return false // not hosting the feed yet: keep tailing/bootstrapping
	}
	bestPeer, behind := "", false
	var bestSeq uint64
	for _, p := range n.peers() {
		if p == e.Owner || !n.alive(p) {
			continue
		}
		ra, err := n.client.Anchors(p, e.Feed)
		if err != nil || len(ra) != len(la) {
			continue // peer unreachable or not hosting: it cannot be ahead of a caught-up follower
		}
		for i := range la {
			if ra[i].Seq > la[i].Seq {
				behind = true
				if ra[i].Seq > bestSeq {
					bestSeq, bestPeer = ra[i].Seq, p
				}
			} else if ra[i].Seq == la[i].Seq && ra[i].Root != la[i].Root {
				// Equal seq, different root: somebody forked. Refuse to
				// promote — an operator must pick the true history.
				n.mu.Lock()
				n.conflicted[e.Feed] = fmt.Sprintf("%v: shard %d seq %d: local root %s, %s has %s",
					ErrDiverged, i, la[i].Seq, la[i].Root, p, ra[i].Root)
				n.mu.Unlock()
				return true
			}
		}
	}
	if behind && bestPeer != "" {
		// Catch up from the most advanced survivor before claiming
		// ownership; every batch it ships is still anchor-verified.
		n.ensureTail(e.Feed, bestPeer, e.Epoch)
		return true
	}
	n.mu.Lock()
	delete(n.conflicted, e.Feed)
	n.mu.Unlock()
	promoted := Entry{Feed: e.Feed, Owner: n.opts.Self, Epoch: e.Epoch + 1}
	if !n.pm.Merge(promoted) {
		return false // lost to a newer decision that arrived meanwhile
	}
	n.stopTail(e.Feed)
	n.failovers.Add(1)
	// Spread the news without waiting out a tick: peers retarget their
	// tails and forwarding as soon as they merge the new entry.
	for _, p := range n.peers() {
		if n.alive(p) {
			go n.pushEntries(p, []Entry{promoted})
		}
	}
	return true
}

// ensureTail makes sure the feed is being tailed from leader, moving it
// between peer followers on ownership changes and auto-resetting stale local
// state once per epoch.
func (n *Node) ensureTail(feed, leader string, epoch uint64) {
	f := n.followers[leader]
	if f == nil {
		return // not a member: there is no follower to tail it with
	}
	n.mu.Lock()
	ts, ok := n.tails[feed]
	n.mu.Unlock()
	var resetEpoch uint64
	if ok && ts.leader == leader {
		if f.FeedStatus(feed).State != repl.StateHalted || ts.resetEpoch >= epoch {
			return
		}
		// The tail refused to fork — under a NEW epoch that means our
		// local history predates an ownership change (e.g. we are a
		// deposed owner whose unreplicated tail writes lost). One
		// verified snapshot reset per epoch re-bases us on the
		// authoritative history; a divergence under the same epoch
		// stays halted.
		resetEpoch = epoch
	}
	if ok {
		n.followers[ts.leader].Unfollow(feed)
	}
	n.resetDivergedShards(feed, leader)
	n.mu.Lock()
	n.tails[feed] = tailState{leader: leader, resetEpoch: resetEpoch}
	n.mu.Unlock()
	f.Follow(feed) // wakes the follower: no wait for its next refresh
}

// resetDivergedShards re-bases any local shard that is ahead of — or
// diverged at equal seq from — the leader, by installing the leader's
// verified bootstrap snapshot. Shards that are merely behind are left for
// the tail to catch up normally.
func (n *Node) resetDivergedShards(feed, leader string) {
	la, err := n.local.Anchors(feed)
	if err != nil {
		return // feed not hosted locally yet: nothing stale to clear
	}
	ra, err := n.client.Anchors(leader, feed)
	if err != nil || len(ra) != len(la) {
		return
	}
	lf, err := n.local.Feed(feed)
	if err != nil {
		return
	}
	rc := &repl.Client{Base: leader, HTTP: n.opts.HTTP}
	for i := range la {
		if la[i].Seq > ra[i].Seq || (la[i].Seq == ra[i].Seq && la[i].Root != ra[i].Root) {
			snap, err := rc.Snapshot(feed, i)
			if err != nil {
				continue
			}
			lf.Reset(i, snap) // Reset hash-verifies the snapshot before installing
		}
	}
}

// stopTail stops tailing a feed if it is tailed (we own the feed now).
func (n *Node) stopTail(feed string) {
	n.mu.Lock()
	ts, ok := n.tails[feed]
	delete(n.tails, feed)
	n.mu.Unlock()
	if ok {
		n.followers[ts.leader].Unfollow(feed)
	}
}

// dropFeed handles a tombstoned entry: stop tailing and drop the local
// replica.
func (n *Node) dropFeed(feed string) {
	n.stopTail(feed)
	for _, id := range n.local.Feeds() {
		if id == feed {
			n.local.CloseFeed(feed)
			return
		}
	}
}

// PlaceFeed returns the URL that should host a new feed: the current
// placement owner if one exists (and is not tombstoned), else the ring
// default over alive members. "" means nobody qualifies (no quorum view at
// all — callers surface 503).
func (n *Node) PlaceFeed(feed string) string {
	if e, ok := n.pm.Get(feed); ok && !e.Deleted {
		return e.Owner
	}
	return n.ring.Owner(feed, n.alive)
}

// ClaimFeed records this node as a feed's owner (after creating it
// locally), superseding any tombstone.
func (n *Node) ClaimFeed(feed string) {
	var epoch uint64 = 1
	if e, ok := n.pm.Get(feed); ok {
		epoch = e.Epoch + 1
	}
	n.pm.Merge(Entry{Feed: feed, Owner: n.opts.Self, Epoch: epoch})
}

// NoteOwner optimistically records a feed's owner after this node
// forwarded a successful create to it, so immediate follow-up writes route
// correctly instead of missing locally until the next heartbeat. The epoch
// chosen matches what ClaimFeed picked on the owner for the same prior
// state, so the entries converge identically.
func (n *Node) NoteOwner(feed, owner string) {
	var epoch uint64 = 1
	if e, ok := n.pm.Get(feed); ok {
		epoch = e.Epoch + 1
	}
	n.pm.Merge(Entry{Feed: feed, Owner: owner, Epoch: epoch})
}

// ReleaseFeed tombstones a feed this node owned (after deleting it
// locally); non-owners drop their replicas when the tombstone reaches them.
func (n *Node) ReleaseFeed(feed string) {
	e, ok := n.pm.Get(feed)
	if !ok {
		return
	}
	n.pm.Merge(Entry{Feed: feed, Owner: n.opts.Self, Epoch: e.Epoch + 1, Deleted: true})
}
