// Package repl implements leader/follower replication for the gateway: a
// follower node ships a feed's per-shard replication log from a leader,
// replays it deterministically through the same log-then-apply shard path the
// leader used, and refuses any batch whose post-apply state disagrees with
// the leader's advertised anchor (query.Anchor: seq, height, root, count).
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
// The log route answers in the binary log encoding (LogMediaType,
// AppendLogPage, DecodeLogPage) and the snapshot route in the binary image
// encoding (ImageMediaType, AppendSnapshot, DecodeSnapshot), each only in
// it; the feeds route, and every error answer, speak JSON. Client fetches
// each as one frame on a Go-to-Go stream to the leader (package stream).
//
// A Follower drives those endpoints against one leader URL and replicates
// into a Target (implemented by server.Gateway): bootstrap from the newest
// snapshot when the cursor has fallen below the leader's retained log floor,
// then tail the log with backoff/resume. Because a follower applies through
// the ordinary shard engine, it publishes the same immutable read views and
// serves the same Merkle-proven reads — server.VerifyingClient works
// unchanged against a follower, which is what buys horizontal verified-read
// scale-out plus a warm standby. A Follower mirrors every leader feed or,
// after Follow, just a named set: a cluster node (a member, or a grubd
// -follow observer) runs one per peer, following the feeds it does not own
// that the peer serves.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/merkle"
	"grub/internal/query"
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
// plus the shard chain's height. Its Seq is the shard's batch sequence — the
// same monotone sequence the query views publish.
type Entry struct {
	query.Anchor
	Ops []core.Op `json:"ops"`
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

// Snapshot is a shard image: the complete feed state of one shard at Seq,
// the anchor it must hash to, and the counters that keep stats continuous.
// It is the one form a shard's state takes outside the shard: a leader
// serves it to bootstrap a follower, and a persistent shard stores it as its
// durable snapshot, both in its binary encoding (AppendSnapshot). Whoever
// installs one — a follower after a fetch, a shard recovering its own store
// — restores the state and checks it against the anchor first. The anchor
// covers seq, height, root and count only: the record set is verified, but
// the rest of the feed state (staged epoch writes, chain storage and Gas
// ledgers, policy state, the data user's last values and the counters) is
// taken on the image's word.
type Snapshot struct {
	Shard int
	query.Anchor
	Feed    *core.FeedSnapshot
	Ops     int
	BaseGas gas.Gas
	// Snapshots counts the durable snapshots the shard's store has taken,
	// this one included: set only on the image a store keeps, so its count
	// survives a restart; zero on the wire.
	Snapshots int
}

// DivergenceError reports an anchor check failure: the batch at Want.Seq (or
// a shard image) produced the state Got where the anchor says Want. It
// unwraps to ErrDivergence.
type DivergenceError struct {
	Shard     int
	Want, Got query.Anchor
}

func (e *DivergenceError) Error() string {
	msg := fmt.Sprintf("repl: shard %d diverged at seq %d: applied root %s (%d records), leader anchor %s (%d records)",
		e.Shard, e.Want.Seq, e.Got.Root, e.Got.Count, e.Want.Root, e.Want.Count)
	if e.Got.Height != e.Want.Height {
		msg += fmt.Sprintf(", applied height %d, anchor height %d", e.Got.Height, e.Want.Height)
	}
	return msg
}

func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// CheckAnchor is the anchor check of a replicated batch and of an installed
// image: got, the state the shard reached, must be the same anchor as want,
// field for field. Otherwise it returns the *DivergenceError naming the
// shard and want's seq.
func CheckAnchor(shard int, want, got query.Anchor) error {
	if got.Against(want) == query.Same {
		return nil
	}
	return &DivergenceError{Shard: shard, Want: want, Got: got}
}

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
