// Package repl implements leader/follower replication for the gateway: a
// follower node ships a feed's per-shard replication log from a leader,
// replays it deterministically through the same log-then-apply shard path the
// leader used, and refuses any batch whose post-apply state disagrees with
// the leader's advertised (seq, root, count) anchor.
//
// The trust model mirrors the authenticated read path (internal/query): a
// follower needs no extra trust because every anchor it accepts is exactly
// the digest verifying light clients check proofs against. A leader (or a
// network path) that ships a tampered batch produces a post-apply root that
// disagrees with the anchor; the follower detects the divergence, surfaces
// it, and halts that shard's replication instead of silently forking — in
// the spirit of the state-replicating middleboxes (LightBox, Nguyen's
// parallel-execution middleware) the ROADMAP points at.
//
// Wire surface (served by internal/server on every gateway):
//
//	GET /repl/feeds                                  feed configs (bootstrap)
//	GET /repl/feeds/{id}/shards/{shard}/log?from=N   applied batches above N
//	GET /repl/feeds/{id}/shards/{shard}/snapshot     consistent state snapshot
//
// A Follower drives those endpoints against one leader URL and replicates
// into a Target (implemented by server.Gateway): bootstrap from the newest
// snapshot when the cursor has fallen below the leader's retained log floor,
// then tail the log with backoff/resume. Because a follower applies through
// the ordinary shard engine, it publishes the same immutable read views and
// serves the same Merkle-proven reads — server.VerifyingClient works
// unchanged against a follower, which is what buys horizontal verified-read
// scale-out plus a warm standby. A Follower mirrors every leader feed
// (grubd -follow) or, after Follow, just a named set: a cluster node runs one
// per peer, following the feeds it does not own that the peer serves.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/merkle"
)

// Sentinel errors. DivergenceError wraps ErrDivergence so callers classify
// with errors.Is without losing the anchor detail.
var (
	// ErrDivergence: a replicated batch (or bootstrap snapshot) produced
	// state that disagrees with the leader's advertised anchor.
	ErrDivergence = errors.New("repl: state diverged from leader anchor")
	// ErrNotReplicating: the feed was built without replication hooks.
	ErrNotReplicating = errors.New("repl: feed has no replication log")
	// ErrSeqGap: a batch arrived out of order (its seq is not the shard's
	// next). The tailer resynchronizes its cursor and refetches.
	ErrSeqGap = errors.New("repl: replication sequence gap")
	// ErrFeedGone: the leader no longer hosts the feed.
	ErrFeedGone = errors.New("repl: feed not on leader")
)

// Entry is one applied op batch in a shard's replication log, together with
// the post-apply anchor the leader's shard reached: the authenticated set's
// root and record count (exactly what light clients verify proofs against)
// plus the shard chain's height. Seq is the shard's batch sequence — the
// same monotone sequence the query views publish.
type Entry struct {
	Seq    uint64      `json:"seq"`
	Ops    []core.Op   `json:"ops"`
	Root   merkle.Hash `json:"root"`
	Count  int         `json:"count"`
	Height uint64      `json:"height"`
}

// WireBytes approximates the entry's shipped payload size (keys, values and
// per-op framing), for catch-up throughput accounting.
func (e *Entry) WireBytes() int {
	n := merkle.HashSize + 24 // anchor + seq/count/height framing
	for _, op := range e.Ops {
		n += len(op.Type) + len(op.Key) + len(op.Value) + 8
	}
	return n
}

// LogPage answers one log fetch: the contiguous entries above the requested
// cursor (bounded by the server's page size), the lowest cursor the leader
// can still serve from its retained log, and the leader's current sequence.
// SnapshotRequired is set when the cursor has fallen below FloorSeq — the
// entries are gone from the retained log and the follower must bootstrap
// from a snapshot instead.
type LogPage struct {
	Entries          []Entry `json:"entries,omitempty"`
	FloorSeq         uint64  `json:"floorSeq"`
	LeaderSeq        uint64  `json:"leaderSeq"`
	SnapshotRequired bool    `json:"snapshotRequired,omitempty"`
}

// Snapshot is a consistent bootstrap image of one shard at Seq: the complete
// feed state plus the anchor it must hash to and the counter metadata that
// keeps the follower's stats continuous. A follower verifies the restored
// state against (Root, Count) before installing it — catch-up is verified,
// not trusted.
type Snapshot struct {
	Shard   int                `json:"shard"`
	Seq     uint64             `json:"seq"`
	Root    merkle.Hash        `json:"root"`
	Count   int                `json:"count"`
	Height  uint64             `json:"height"`
	Feed    *core.FeedSnapshot `json:"feed"`
	Ops     int                `json:"ops"`
	BaseGas gas.Gas            `json:"baseGas"`
}

// DivergenceError reports an anchor check failure: the batch at Seq (or a
// bootstrap snapshot) produced GotRoot/GotCount where the leader advertised
// WantRoot/WantCount. It unwraps to ErrDivergence.
type DivergenceError struct {
	Shard     int
	Seq       uint64
	WantRoot  merkle.Hash
	GotRoot   merkle.Hash
	WantCount int
	GotCount  int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("repl: shard %d diverged at seq %d: applied root %s (%d records), leader anchor %s (%d records)",
		e.Shard, e.Seq, e.GotRoot, e.GotCount, e.WantRoot, e.WantCount)
}

func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// Feed is the local engine a follower replicates one feed into;
// shard.ShardedFeed implements it. Apply and Reset serialize through the
// target shard's worker; Seq reads the shard's replication cursor.
type Feed interface {
	// Shards returns the partition count (must match the leader's).
	Shards() int
	// Seq returns the shard's last applied batch sequence.
	Seq(shard int) (uint64, error)
	// Apply replays one shipped batch through the shard's normal
	// log-then-apply path and verifies the post-apply anchor. A
	// DivergenceError halts the shard: every later Apply returns it too.
	Apply(shard int, e Entry) error
	// Reset replaces the shard's state wholesale with a verified bootstrap
	// snapshot and returns the new cursor.
	Reset(shard int, snap *Snapshot) (uint64, error)
}

// Target is the local node a Follower replicates into (implemented by
// server.Gateway). Configs travel as raw JSON so this package needs no
// dependency on the gateway's config schema.
type Target interface {
	// EnsureFeed creates the feed the leader config describes if it is
	// absent locally, and errors if a feed with that ID exists with a
	// different configuration.
	EnsureFeed(id string, cfg json.RawMessage) error
	// Feed resolves a hosted feed's replication interface.
	Feed(id string) (Feed, error)
}
