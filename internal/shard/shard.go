// Package shard implements the sharded feed engine: a ShardedFeed
// hash-partitions the keyspace across N independent core.Feed shards, each
// with its own simulated chain, gas meter and replication policy, and each
// owned by a dedicated worker goroutine fed through a mailbox channel (the
// single-writer pattern the gateway introduced, pushed down one layer).
//
// GRuB's replication decisions (memoryless/memorizing/adaptive-K) are made
// per key, so the keyspace partitions cleanly: no protocol state crosses a
// shard boundary. An incoming batch is split per shard by key hash, the
// sub-batches execute concurrently (scatter), and the per-op results are
// merged back into the caller's original order (gather). A one-shard
// ShardedFeed degenerates to exactly the single worker/mailbox feed of the
// unsharded gateway.
//
// Semantics under sharding:
//
//   - Per-key operations (read/write) behave exactly as on a single feed:
//     every key lives on exactly one shard, which serializes its ops.
//   - Scans route by their start key and expand within that shard's
//     keyspace only (the hash partition destroys global key order).
//   - A batch is atomic per shard, not across shards: each shard serializes
//     its sub-batches, but sub-batches of two concurrent batches may
//     interleave differently on different shards. Per-key results are
//     unaffected — that is the equivalence the tests pin down.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
)

// ErrClosed is returned by operations on a closed ShardedFeed.
var ErrClosed = errors.New("shard: feed closed")

// ShardOf maps a key to its shard index in [0, n). The routing is pure
// (FNV-1a over the key bytes, canonically implemented in internal/query so
// verifying light clients share it), so clients, the engine and replays all
// agree on the partition without coordination.
func ShardOf(key string, n int) int { return query.ShardOf(key, n) }

// Options configures a ShardedFeed.
type Options struct {
	// Shards is the number of partitions; values < 1 mean 1.
	Shards int
	// RecordTrace keeps each shard's serialized op order (and per-op
	// results) in memory so equivalence tests can replay it. Off by
	// default: the trace grows without bound. With persistence enabled,
	// a recovered feed's trace restarts at the newest snapshot (earlier
	// ops were compacted away).
	RecordTrace bool
	// Views publishes an immutable read view (record set version + ads
	// root + chain height) per shard after every applied batch, served by
	// Engine() — the authenticated read path (internal/query). Readers
	// never send the shard workers a message, but a read that finds its
	// view retracted waits for the one batch in flight on that shard.
	// Publication is a root-pointer capture of the persistent record set,
	// which the batch anchor has already sealed. A batch, client or
	// replicated, copies the nodes it writes only if a read of the view is
	// in flight, or a reader waits, when it starts; a view no read is in is
	// retracted and edited in place, whether or not it was read before.
	// A replicated batch edits a retracted view's nodes under an undo
	// journal, so a batch refused for its anchor rolls back and the last
	// verified view is published again.
	Views bool
	// Persist, when non-nil, backs every shard with a durable op log and
	// snapshot store (see persist.go); New recovers whatever state the
	// directory already holds.
	Persist *PersistOptions
	// Repl keeps a bounded in-memory replication log per shard (every
	// applied batch with its post-apply anchor) and enables the
	// Apply/Reset/ReplSnapshot replication entry points (see repl.go).
	Repl bool
	// ReplRetain caps the replication log length per shard (entries); 0
	// means DefaultReplRetain. Followers further behind bootstrap from a
	// snapshot.
	ReplRetain int
	// Restore rebuilds one shard's feed from an image's feed state, for
	// the replication bootstrap path (Reset) and for recovery of a store
	// that holds an image; it must wire the feed exactly as the build
	// callback would, then install the state. Falls back to
	// Persist.Restore when nil.
	Restore func(shard int, snap *core.FeedSnapshot) (*core.Feed, error)
	// Stages, when non-nil, receives per-stage batch latency
	// observations (mailbox wait, WAL persist, apply, repl append, view
	// publish) for every shard of this feed. The histograms are shared
	// across shards — series are labeled by feed, with the shard index
	// carried only on trace spans. Nil disables stage timing entirely.
	Stages obs.FeedStages
	// Load, when non-nil, receives per-batch ops and gas counts from
	// every shard worker (client batches and replicated applies alike)
	// — the feed's share of the node's load accounting. Nil disables.
	Load *obs.RateMeter
}

// ErrNotPersistent is returned by Snapshot on a feed without persistence.
var ErrNotPersistent = errors.New("shard: feed has no persistence")

// ShardStat is one shard's share of a sharded feed's accounting.
type ShardStat struct {
	Shard int `json:"shard"`
	// Ops and Batches count the sub-batches this shard executed.
	Ops     int            `json:"ops"`
	Batches int            `json:"batches"`
	Feed    core.FeedStats `json:"feed"`
	// BaseGas is the shard's genesis digest cost, excluded from GasPerOp.
	BaseGas  gas.Gas `json:"baseGas"`
	GasPerOp float64 `json:"gasPerOp"`
	// Persist reports the shard's durability counters (nil without
	// persistence).
	Persist *PersistStat `json:"persist,omitempty"`
	// Diverged reports a halted replication anchor check (follower role):
	// the shard refused a batch whose post-apply state disagreed with the
	// leader's anchor and stopped replicating. Empty when healthy.
	Diverged string `json:"diverged,omitempty"`
}

// Stats aggregates a sharded feed: summed gas counters and read accounting
// across shards, plus the per-shard breakdown.
type Stats struct {
	Shards int `json:"shards"`
	// Ops sums per-shard ops; Batches counts top-level Do calls.
	Ops     int `json:"ops"`
	Batches int `json:"batches"`
	// Feed is the field-wise sum of the per-shard snapshots (Height and
	// TxCount sum across the independent per-shard chains).
	Feed     core.FeedStats `json:"feed"`
	BaseGas  gas.Gas        `json:"baseGas"`
	GasPerOp float64        `json:"gasPerOp"`
	PerShard []ShardStat    `json:"perShard"`
	// Persist sums the per-shard durability counters (nil without
	// persistence).
	Persist *PersistStats `json:"persist,omitempty"`
}

// addFeedStats sums two snapshots field-wise. Summing Height/TxCount is
// meaningful because shards run on independent chains: the aggregate equals
// the sum over N single feeds replaying the per-shard sub-traces.
func addFeedStats(a, b core.FeedStats) core.FeedStats {
	a.Delivered += b.Delivered
	a.NotFound += b.NotFound
	a.FeedGas += b.FeedGas
	a.TotalGas += b.TotalGas
	a.Height += b.Height
	a.TxCount += b.TxCount
	a.Records += b.Records
	a.Replicated += b.Replicated
	return a
}

// request kinds understood by a shard worker.
type reqKind int

const (
	reqOps reqKind = iota // a batch: a client's, or a leader's with entry set
	reqStats
	reqTrace
	reqSnapshot
	reqReplSnap  // the shard's image at the current seq
	reqReplReset // install a leader's image wholesale
	reqStop      // graceful: final snapshot (if persistent), close store
	reqKill      // crash simulation: abandon the store as-is
)

type request struct {
	kind  reqKind
	ops   []core.Op
	entry *repl.Entry    // reqOps from a replication leader
	snap  *repl.Snapshot // reqReplReset
	// resp receives the answer. A round trip to several shards sends
	// them all one channel, and each answer names its shard.
	resp chan response
	// tr carries the batch's trace (nil for untraced requests); enq is
	// the mailbox-enqueue instant, stamped only when the feed times
	// stages or the batch is traced, and yields the mailbox-wait span.
	tr  *obs.Trace
	enq time.Time
}

type response struct {
	shard    int
	results  []core.OpResult
	stat     ShardStat
	trace    []core.Op
	traceRes []core.OpResult
	snap     *repl.Snapshot
	err      error
}

// shardState is everything one shard worker owns: the feed, its gas/op
// accounting, the optional in-memory trace and the optional durable store.
// New assembles it on a goroutine of its own (running recovery when the
// store holds prior state); after the worker starts, only the worker
// goroutine touches it.
type shardState struct {
	idx  int
	feed *core.Feed
	// restore rebuilds the feed from an image's feed state (the resolved
	// Options.Restore); nil refuses every image.
	restore func(shard int, snap *core.FeedSnapshot) (*core.Feed, error)
	// base is the genesis digest cost, excluded from gas/op. It survives
	// restarts in the shard's image.
	base gas.Gas
	// ops and batches count executed work across the shard's whole
	// lifetime, including batches replayed during recovery.
	ops     int
	batches int
	// record mirrors Options.RecordTrace: keep every executed op and its
	// result in trace / traceRes.
	record   bool
	trace    []core.Op
	traceRes []core.OpResult
	persist  *persister // nil without persistence
	// repl is the shard's in-memory replication log (nil without
	// Options.Repl); diverged, once set, permanently refuses further
	// replicated applies on this shard (follower role, anchor mismatch).
	repl     *replLog
	diverged error
	// persistErr holds the last automatic-snapshot failure. Auto-snapshot
	// failures do not fail the batch that triggered them (the batch is
	// applied and logged; only compaction is behind) — they surface as
	// PersistStat.LastError in Stats and as the error of the next explicit
	// Snapshot call.
	persistErr error
	// stages receives per-stage latency observations (nil disables).
	stages obs.FeedStages
	// load receives per-batch ops/gas counts (nil disables).
	load *obs.RateMeter
}

// applyBatch is the one way a batch executes on a shard, whoever sent it — a
// client, a replication leader or the shard's own durable log on recovery:
// run the ops, meter the work (op count and the gas the batch charged),
// advance the lifetime counters, keep the trace when recording, and anchor
// the post-apply state. It returns the batch's replication entry and, when
// the caller asks for them or the trace keeps them, the per-op results: a
// replay (recovery, a shipped batch) reads none. What surrounds the apply
// (WAL append, anchor check, replication-log append, view publication,
// stage timing) is the caller's.
func (st *shardState) applyBatch(ops []core.Op, wantResults bool) ([]core.OpResult, repl.Entry) {
	gasBefore := st.feed.FeedGas()
	var results []core.OpResult
	if wantResults || st.record {
		results = core.ApplyOps(st.feed, ops)
	} else {
		core.RunOps(st.feed, ops)
	}
	if st.load != nil {
		st.load.Add(len(ops), float64(st.feed.FeedGas()-gasBefore))
	}
	st.ops += len(ops)
	st.batches++
	if st.record {
		st.trace = append(st.trace, ops...)
		st.traceRes = append(st.traceRes, results...)
	}
	return results, repl.Entry{Anchor: anchorOf(st.feed, uint64(st.batches)), Ops: ops}
}

// stageClock stamps successive pipeline stages of one batch onto the
// shard's stage histograms and, when the batch is traced, its span
// record. The zero value is inert; newStageClock arms it only when
// there is somewhere to record to, so untimed feeds skip the clock
// reads entirely.
type stageClock struct {
	stages obs.FeedStages
	tr     *obs.Trace
	shard  int
	start  time.Time
	last   time.Time
	on     bool
}

// newStageClock starts timing one batch on a shard worker. When the
// request carries its enqueue instant, the elapsed mailbox wait is
// recorded immediately.
func newStageClock(st *shardState, req request, shard int) stageClock {
	c := stageClock{stages: st.stages, tr: req.tr, shard: shard}
	c.on = c.stages != nil || c.tr != nil
	if !c.on {
		return c
	}
	c.start = time.Now()
	c.last = c.start
	if !req.enq.IsZero() {
		c.stages.Record(c.tr, obs.StageMailbox, shard, req.enq, c.start.Sub(req.enq))
	}
	return c
}

// mark closes the current stage: the time since the previous mark (or
// the clock's start) is recorded under stage, in its histogram and as a
// span.
func (c *stageClock) mark(stage string) {
	if !c.on {
		return
	}
	now := time.Now()
	c.stages.Record(c.tr, stage, c.shard, c.last, now.Sub(c.last))
	c.last = now
}

// skip advances the clock without recording, so work with no dedicated
// stage (e.g. auto-snapshot compaction) does not pollute the next one.
func (c *stageClock) skip() {
	if c.on {
		c.last = time.Now()
	}
}

// total records the time since the clock started under stage.
func (c *stageClock) total(stage string) {
	if !c.on {
		return
	}
	c.stages.Record(c.tr, stage, c.shard, c.start, time.Since(c.start))
}

// worker owns one shard's feed. Only its goroutine touches the feed;
// everyone else talks through the mailbox.
type worker struct {
	idx  int
	mail chan request
	done chan struct{}
	// views, when non-nil, receives this shard's read view after every
	// applied batch (Options.Views).
	views *query.Engine
}

// publishView snapshots the shard's current state into a read view and
// installs it: the current version of the feed's authenticated record set,
// its root, the shard chain's height, and the batch count as the monotone
// publication sequence. Every batch ends with anchorOf, and install checks an
// image's anchor, both of which seal the set, so Capture here has nothing
// left to hash: it is a root-pointer capture whose cost is independent of the
// record count, and readers of the view find every node hashed. The view
// holds the version by value, so a publish is one allocation. The set
// keeps its generation; releaseView decides, at the next batch, whether the
// view's nodes must be copied.
func (w *worker) publishView(st *shardState) {
	if w.views == nil {
		return
	}
	version := st.feed.DO.Set().Capture()
	w.views.Publish(w.idx, query.NewView(w.idx, uint64(st.batches), st.feed.Chain.Height(), version))
}

// releaseView makes the set safe to mutate under the current view. If no
// read of the view is in flight and no reader waits for one, retracting it
// means none will read it again, and the batch edits the view's nodes in
// place; otherwise the set ends its generation, and the batch copies every
// node the view reaches before writing it, so the reads in flight finish on
// the version they began and a waiting reader can still read it. After a
// retraction a view must be published before the worker waits for its next
// request: readers that found the view retracted wait for its successor. It
// reports whether it retracted the view.
func (w *worker) releaseView(st *shardState) (retracted bool) {
	if w.views == nil {
		return false
	}
	if w.views.Retract(w.idx) {
		return true
	}
	st.feed.DO.Set().EndGeneration()
	return false
}

// anchorOf reads feed's anchor at seq. Root seals the set: the hashing the
// batch's mutations deferred — each node on the union of their root paths,
// once — runs here, on the worker, in the apply stage.
func anchorOf(feed *core.Feed, seq uint64) query.Anchor {
	set := feed.DO.Set()
	return query.Anchor{Seq: seq, Height: feed.Chain.Height(), Root: set.Root(), Count: set.Len()}
}

// mailboxDepth buffers sub-batch sends so a scatter never stalls on one busy
// shard while the others sit idle.
const mailboxDepth = 64

func (w *worker) loop(st *shardState) {
	defer close(w.done)
	for req := range w.mail {
		r := w.serve(st, req)
		r.shard = w.idx
		req.resp <- r
		if req.kind == reqStop || req.kind == reqKill {
			return
		}
	}
}

// serve answers one request. After reqStop or reqKill the worker exits.
func (w *worker) serve(st *shardState, req request) response {
	switch req.kind {
	case reqStop:
		err := st.persistErr
		if st.persist != nil {
			// Drain-then-flush: a final snapshot makes the next
			// open replay-free; the WAL already holds everything,
			// so a failure here costs recovery time, not data. A
			// diverged shard must NOT snapshot: its in-memory state
			// holds the refused fork, while its durable log was
			// rolled back to the verified prefix — recovery from
			// the log is exactly the state we want back.
			if st.diverged == nil {
				if serr := st.snapshot(); err == nil {
					err = serr
				}
			}
			if cerr := st.persist.db.Close(); err == nil {
				err = cerr
			}
		}
		return response{err: err}
	case reqKill:
		if st.persist != nil {
			// Simulated crash: no snapshot, no flush. Close only
			// releases file handles; recovery must come from the
			// engine's WAL exactly as after a process death.
			st.persist.db.Close()
		}
		return response{}
	case reqStats:
		stat := ShardStat{Shard: w.idx, Ops: st.ops, Batches: st.batches, Feed: st.feed.Stats(), BaseGas: st.base}
		if st.ops > 0 {
			stat.GasPerOp = float64(stat.Feed.FeedGas-st.base) / float64(st.ops)
		}
		if st.persist != nil {
			ps := st.persist.stat()
			if st.persistErr != nil {
				ps.LastError = st.persistErr.Error()
			}
			stat.Persist = &ps
		}
		if st.diverged != nil {
			stat.Diverged = st.diverged.Error()
		}
		return response{stat: stat}
	case reqReplSnap:
		img, err := st.image()
		return response{snap: img, err: err}
	case reqReplReset:
		return response{err: w.reset(st, req.snap)}
	case reqSnapshot:
		if st.persist == nil {
			return response{err: ErrNotPersistent}
		}
		if st.diverged != nil {
			// Snapshotting would durably adopt the refused fork.
			return response{err: st.diverged}
		}
		err := st.persistErr
		st.persistErr = nil
		if serr := st.snapshot(); err == nil {
			err = serr
		}
		var stat ShardStat
		if err == nil {
			ps := st.persist.stat()
			stat = ShardStat{Shard: w.idx, Persist: &ps}
		}
		return response{stat: stat, err: err}
	case reqTrace:
		tr := make([]core.Op, len(st.trace))
		copy(tr, st.trace)
		rs := make([]core.OpResult, len(st.traceRes))
		copy(rs, st.traceRes)
		return response{trace: tr, traceRes: rs}
	}
	clk := newStageClock(st, req, w.idx)
	results, err := w.commit(st, req.ops, req.entry, &clk)
	return response{results: results, err: err}
}

// commit is the one write step of a shard, for a client batch (want nil)
// and for a batch a replication leader shipped (want its entry): log the
// batch, apply it, snapshot if due, append it to the replication log and
// publish the view. The log comes first, so recovery replays exactly the
// logged prefix; the view is published before the caller hears back, so a
// client that saw its batch complete reads its own writes from the next view.
//
// A shipped batch must carry the shard's next seq, and its post-apply state
// must match the leader's anchor in every field (repl.CheckAnchor). On a
// mismatch the batch is rolled back out of the durable log (it must not
// replay into recovered state), the shard halts permanently, and the
// pre-batch view keeps serving: the shard refuses to fork rather than serve
// unverified state. (A crash between the log
// append and the rollback can leave the refused batch durable; the next
// shipped batch after recovery re-detects the divergence.) A view no read
// is in is retracted and edited in place for either kind of batch; for a
// shipped one the edit runs under the set's undo journal, so a refused batch
// rolls the set back and publishes it again at the pre-batch seq, height,
// root and count, which the readers waiting on the retracted view then read.
func (w *worker) commit(st *shardState, ops []core.Op, want *repl.Entry, clk *stageClock) ([]core.OpResult, error) {
	if want != nil && st.repl == nil {
		return nil, ErrNotReplicating
	}
	if st.diverged != nil {
		// The shard is halted on a refused fork: accepting new writes (or
		// letting an auto-snapshot run) would build on — and eventually
		// persist — unverified state.
		return nil, st.diverged
	}
	if want != nil && want.Seq != uint64(st.batches)+1 {
		return nil, fmt.Errorf("%w: shard %d expects seq %d, got %d", repl.ErrSeqGap, w.idx, st.batches+1, want.Seq)
	}
	if st.persist != nil {
		if err := st.persist.appendBatch(ops); err != nil {
			return nil, err
		}
		clk.mark(obs.StagePersist)
	}
	// From here to publishView nothing returns early.
	set := st.feed.DO.Set()
	journaled := w.releaseView(st) && want != nil
	if journaled {
		set.Journal()
	}
	seq, height := uint64(st.batches), st.feed.Chain.Height()
	results, entry := st.applyBatch(ops, want == nil)
	clk.mark(obs.StageApply)
	if want != nil {
		if div := repl.CheckAnchor(w.idx, want.Anchor, entry.Anchor); div != nil {
			st.diverged = div
			if st.persist != nil {
				if rerr := st.persist.rollbackBatch(want.Seq); rerr != nil {
					st.persistErr = rerr
				}
			}
			if journaled {
				set.Rollback()
				w.views.Publish(w.idx, query.NewView(w.idx, seq, height, set.Capture()))
			}
			return nil, div
		}
		if journaled {
			set.Commit()
		}
	}
	if st.persist != nil && st.persist.snapshotDue() {
		if serr := st.snapshot(); serr != nil {
			st.persistErr = serr
		}
		clk.skip() // compaction has no stage of its own
	}
	if st.repl != nil {
		st.repl.append(entry)
		clk.mark(obs.StageReplAppend)
	}
	w.publishView(st)
	clk.mark(obs.StagePublish)
	if want != nil {
		clk.total(obs.StageFollowerApply)
	}
	return results, nil
}

// image captures the shard at Seq = batches: its feed state, the anchor the
// state hashes to and its counters. It is the one capture of a shard's
// state, for the snapshot route and for the durable snapshot alike. A
// diverged shard refuses: its in-memory state holds the refused fork, which
// must neither reach a chained follower nor become durable.
func (st *shardState) image() (*repl.Snapshot, error) {
	if st.diverged != nil {
		return nil, st.diverged
	}
	fs, err := st.feed.Snapshot()
	if err != nil {
		return nil, err
	}
	anchor := anchorOf(st.feed, uint64(st.batches))
	return &repl.Snapshot{Shard: st.idx, Anchor: anchor, Feed: fs, Ops: st.ops, BaseGas: st.base}, nil
}

// install makes img the shard's state, a leader's image on Reset and the
// store's own on recovery alike. The feed it restores must hash to the
// image's anchor first (repl.CheckAnchor): an image that does not is refused
// with a *repl.DivergenceError, and one that does not restore at all with
// the restore error; either way the shard stays as it was. On success the
// counters continue from the image, the trace restarts (the history before
// it is superseded) and the replication log restarts at img.Seq.
func (st *shardState) install(img *repl.Snapshot) error {
	if img == nil || img.Feed == nil {
		return fmt.Errorf("shard: shard %d: image without feed state", st.idx)
	}
	if st.restore == nil {
		return fmt.Errorf("shard: shard %d has no Restore callback to install an image", st.idx)
	}
	feed, err := st.restore(st.idx, img.Feed)
	if err != nil {
		return fmt.Errorf("shard: restore image at seq %d: %w", img.Seq, err)
	}
	if err := repl.CheckAnchor(st.idx, img.Anchor, anchorOf(feed, img.Seq)); err != nil {
		return err
	}
	st.feed, st.ops, st.batches, st.base = feed, img.Ops, int(img.Seq), img.BaseGas
	st.trace, st.traceRes = nil, nil
	st.diverged = nil
	if st.repl != nil {
		st.repl.reset(img.Seq)
	}
	return nil
}

// fresh gives a shard with no image a new feed from build.
func (st *shardState) fresh(build func(int) (*core.Feed, error)) error {
	f, err := build(st.idx)
	if err != nil {
		return err
	}
	st.feed, st.base = f, f.FeedGas()
	return nil
}

// snapshot stores the shard's image as its durable snapshot.
func (st *shardState) snapshot() error {
	img, err := st.image()
	if err != nil {
		return err
	}
	return st.persist.snapshot(img)
}

// reset installs a leader's image wholesale, then, on a persistent shard,
// stores it as the durable snapshot, which drops the local log (a history
// the image supersedes, possibly stale or diverged), and publishes it. A
// refused image leaves the shard as it was.
func (w *worker) reset(st *shardState, img *repl.Snapshot) error {
	if err := st.install(img); err != nil {
		return err
	}
	if st.persist != nil {
		if err := st.persist.snapshot(img); err != nil {
			st.persistErr = err
		}
	}
	w.publishView(st)
	return nil
}

// ShardedFeed partitions one logical feed across N shard workers. All
// methods are safe for concurrent use; per-shard ordering is serialized by
// the shard workers.
type ShardedFeed struct {
	workers   []*worker
	batches   atomic.Int64
	closeOnce sync.Once
	// engine serves the authenticated read path (nil unless
	// Options.Views).
	engine *query.Engine
	// replLogs holds each shard's replication log (entries nil unless
	// Options.Repl), index-aligned with workers. The logs stay readable
	// after Close, like the engine views.
	replLogs []*replLog
	// stages mirrors Options.Stages (nil disables stage timing).
	stages obs.FeedStages
	// replies pools reply channels (chan response), each with room for
	// one answer per shard, so no worker ever blocks on its send. A
	// channel goes back only once every answer sent on it was received.
	replies sync.Pool
}

// Engine returns the feed's snapshot-isolated query engine, or nil when the
// feed was built without Options.Views. The engine stays readable after
// Close (views are immutable), serving whatever each shard last published.
func (s *ShardedFeed) Engine() *query.Engine { return s.engine }

// New builds a sharded feed with opts.Shards shards, constructing each
// shard's feed with build (called with the shard index; each call must
// return a fresh feed on its own chain). With Persist set, each shard first
// recovers whatever its store directory holds — newest snapshot, then log
// replay — before accepting traffic, so New after a crash resumes exactly
// where the durable log stops.
//
// Shards share no protocol state, so every shard is prepared at once, one
// goroutine each (build, Persist.Restore and the shared obs handles must
// therefore be safe for concurrent use); replay within a shard stays
// sequential, so the recovered state is the same as one-at-a-time recovery.
// If any shard fails, New closes every store that did open and returns the
// error of the lowest-indexed failing shard, prefixed with its index.
func New(opts Options, build func(shard int) (*core.Feed, error)) (*ShardedFeed, error) {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	s := &ShardedFeed{workers: make([]*worker, n), replLogs: make([]*replLog, n), stages: opts.Stages}
	if opts.Views {
		s.engine = query.NewEngine(n)
		s.engine.SetProofHistogram(opts.Stages.Hist(obs.StageProofBuild))
	}
	restore := opts.Restore
	if restore == nil && opts.Persist != nil {
		restore = opts.Persist.Restore
	}
	states := make([]*shardState, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range states {
		w := &worker{idx: i, mail: make(chan request, mailboxDepth), done: make(chan struct{}), views: s.engine}
		s.workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := newShardState(opts, i, build, restore)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			// Initial view: reads (including absence proofs over the empty
			// set, and recovered state after a restart) work before the
			// first batch lands.
			w.publishView(st)
			states[i] = st
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, st := range states {
				if st != nil && st.persist != nil {
					st.persist.db.Close()
				}
			}
			return nil, err
		}
	}
	for i, st := range states {
		s.replLogs[i] = st.repl
		go s.workers[i].loop(st)
	}
	return s, nil
}

// newShardState prepares one shard before its worker starts: fresh build in
// the in-memory case, open-store-and-recover in the persistent case. With
// replication enabled the shard's replication log starts at the recovered
// sequence (recovery re-anchors every replayed batch into it). restore is
// the callback New resolved; Reset and recovery install images through it.
func newShardState(opts Options, idx int, build func(int) (*core.Feed, error), restore func(int, *core.FeedSnapshot) (*core.Feed, error)) (*shardState, error) {
	st := &shardState{idx: idx, restore: restore, record: opts.RecordTrace}
	if opts.Repl {
		st.repl = newReplLog(opts.ReplRetain)
	}
	if opts.Persist == nil {
		if err := st.fresh(build); err != nil {
			return nil, err
		}
	} else {
		p, err := openPersister(*opts.Persist, idx)
		if err != nil {
			return nil, err
		}
		if err := p.recover(st, build); err != nil {
			p.db.Close()
			return nil, err
		}
		st.persist = p
	}
	// The meters see the batches from here on, not recovery's replay.
	st.stages, st.load = opts.Stages, opts.Load
	return st, nil
}

// Shards returns the partition count.
func (s *ShardedFeed) Shards() int { return len(s.workers) }

// send routes one request to a shard worker, without waiting for the
// response (gather happens at the caller so scatters overlap).
func (s *ShardedFeed) send(w *worker, req request) error {
	select {
	case w.mail <- req:
		return nil
	case <-w.done:
		return ErrClosed
	}
}

// replyChan takes a reply channel from the feed's pool.
func (s *ShardedFeed) replyChan() chan response {
	if c, ok := s.replies.Get().(chan response); ok {
		return c
	}
	return make(chan response, len(s.workers))
}

// roundTrip sends req to w on a reply channel from the feed's pool and
// waits for the answer. The channel goes back to the pool once the answer
// is in.
func (s *ShardedFeed) roundTrip(w *worker, req request) (response, error) {
	req.resp = s.replyChan()
	if err := s.send(w, req); err != nil {
		return response{}, err
	}
	r, err := await(req.resp, w)
	if err == nil {
		s.replies.Put(req.resp)
	}
	return r, err
}

// await receives the next answer on resp, the reply channel of a round trip
// that still owes one from w, among others. A worker answers before it
// exits, so once w has exited its answer is already on resp or never comes,
// and await returns ErrClosed. Answers may then still arrive on resp, so
// the caller must not pool it.
func await(resp chan response, w *worker) (response, error) {
	select {
	case r := <-resp:
		return r, nil
	case <-w.done:
		select {
		case r := <-resp:
			return r, nil
		default:
			return response{}, ErrClosed
		}
	}
}

// Do executes one batch: it splits the ops per shard by key hash, runs the
// sub-batches concurrently, and merges the results back into the input
// order. The error is non-nil when the feed is closed or a shard refuses its
// sub-batch (a halted shard's divergence, a failed log append). The feed keeps
// the writes' value bytes (see core.Op): the caller must not write them
// afterwards.
//
// The scatter counts each shard's ops in one pass, then copies them into one
// exact-size sub-batch per shard, and records in one arena where each sub-batch
// op came from, for the gather. The sub-batches never share a backing array:
// a shard's replication log keeps its sub-batch, and a shared array would pin
// every other shard's values with it. All sub-batches answer on one pooled
// reply channel.
func (s *ShardedFeed) Do(ops []core.Op) ([]core.OpResult, error) {
	return s.DoCtx(context.Background(), ops)
}

// DoCtx is Do with a context carrying observability state: when the
// context holds an obs.Trace (see obs.WithTrace), every pipeline stage
// the batch crosses is recorded as a span on it, and when the feed was
// built with Options.Stages the mailbox wait is timed per sub-batch.
// The context does not cancel the batch — shard workers never abandon
// a batch mid-apply.
func (s *ShardedFeed) DoCtx(ctx context.Context, ops []core.Op) ([]core.OpResult, error) {
	tr := obs.TraceFrom(ctx)
	var enq time.Time
	if s.stages != nil || tr != nil {
		enq = time.Now()
	}
	n := len(s.workers)
	s.batches.Add(1)
	if n == 1 {
		r, err := s.roundTrip(s.workers[0], request{kind: reqOps, ops: ops, tr: tr, enq: enq})
		if err != nil {
			return nil, err
		}
		return r.results, r.err
	}

	// Scatter. The arena holds each shard's first index into pos
	// (start[n] = len(ops)), each shard's fill cursor into pos, the shards
	// that owe an answer, each op's shard, and pos: the caller's position of
	// every sub-batch op, shard by shard, each key in its relative order.
	arena := make([]int, 3*n+1+2*len(ops))
	start, next, owed := arena[:n+1], arena[n+1:2*n+1], arena[2*n+1:3*n+1]
	home, pos := arena[3*n+1:3*n+1+len(ops)], arena[3*n+1+len(ops):]
	for i, op := range ops {
		sh := ShardOf(op.Key, n)
		home[i] = sh
		start[sh+1]++
	}
	for sh := range n {
		start[sh+1] += start[sh]
		next[sh] = start[sh]
	}
	for i, sh := range home {
		pos[next[sh]] = i
		next[sh]++
	}
	resp := s.replyChan()
	pending := 0
	for sh := range n {
		at := pos[start[sh]:start[sh+1]]
		if len(at) == 0 {
			continue
		}
		sub := make([]core.Op, len(at))
		for j, i := range at {
			sub[j] = ops[i]
		}
		if err := s.send(s.workers[sh], request{kind: reqOps, ops: sub, resp: resp, tr: tr, enq: enq}); err != nil {
			return nil, err
		}
		owed[sh] = 1
		pending++
	}

	// Gather: merge per-shard results back into the caller's order.
	out := make([]core.OpResult, len(ops))
	for ; pending > 0; pending-- {
		r, err := s.gather(resp, owed)
		if err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, r.err
		}
		for j, i := range pos[start[r.shard]:start[r.shard+1]] {
			out[i] = r.results[j]
		}
	}
	s.replies.Put(resp)
	return out, nil
}

// gather receives the next answer of a scatter whose requests all answer on
// resp, where owed[sh] is 1 while shard sh still owes its answer, and clears
// the answering shard's mark. It waits on the lowest shard that still owes
// one, so a worker that exited without answering ends the gather with
// ErrClosed, and the caller must then drop resp.
func (s *ShardedFeed) gather(resp chan response, owed []int) (response, error) {
	lo := 0
	for owed[lo] == 0 {
		lo++
	}
	r, err := await(resp, s.workers[lo])
	if err == nil {
		owed[r.shard] = 0
	}
	return r, err
}

// broadcast sends one request kind to every shard and returns the responses
// in shard order.
func (s *ShardedFeed) broadcast(kind reqKind) ([]response, error) {
	resp := s.replyChan()
	owed := make([]int, len(s.workers))
	for i, w := range s.workers {
		if err := s.send(w, request{kind: kind, resp: resp}); err != nil {
			return nil, err
		}
		owed[i] = 1
	}
	out := make([]response, len(s.workers))
	for range s.workers {
		r, err := s.gather(resp, owed)
		if err != nil {
			return nil, err
		}
		out[r.shard] = r
	}
	s.replies.Put(resp)
	return out, nil
}

// Stats snapshots every shard and aggregates. With batches in flight the
// per-shard snapshots are each internally consistent but may straddle a
// batch; quiesce first for exact accounting (the tests do).
func (s *ShardedFeed) Stats() (Stats, error) {
	rs, err := s.broadcast(reqStats)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Shards:   len(s.workers),
		Batches:  int(s.batches.Load()),
		PerShard: make([]ShardStat, len(rs)),
	}
	for i, r := range rs {
		st.PerShard[i] = r.stat
		st.Ops += r.stat.Ops
		st.BaseGas += r.stat.BaseGas
		st.Feed = addFeedStats(st.Feed, r.stat.Feed)
		if p := r.stat.Persist; p != nil {
			if st.Persist == nil {
				st.Persist = &PersistStats{}
			}
			st.Persist.Snapshots += p.Snapshots
			st.Persist.LoggedBatches += p.LoggedBatches
			if p.LastSeq > st.Persist.LastSeq {
				st.Persist.LastSeq = p.LastSeq
			}
			if st.Persist.LastError == "" {
				st.Persist.LastError = p.LastError
			}
		}
	}
	if st.Ops > 0 {
		st.GasPerOp = float64(st.Feed.FeedGas-st.BaseGas) / float64(st.Ops)
	}
	return st, nil
}

// Snapshot forces an immediate snapshot on every shard: feed state is
// serialized into the store, the op log below it is pruned and the engine
// checkpoints, so a subsequent open replays nothing. It returns the
// aggregated durability counters, or ErrNotPersistent for an in-memory
// feed.
func (s *ShardedFeed) Snapshot() (PersistStats, error) {
	rs, err := s.broadcast(reqSnapshot)
	if err != nil {
		return PersistStats{}, err
	}
	var out PersistStats
	for _, r := range rs {
		if r.err != nil {
			return PersistStats{}, r.err
		}
		if p := r.stat.Persist; p != nil {
			out.Snapshots += p.Snapshots
			out.LoggedBatches += p.LoggedBatches
			if p.LastSeq > out.LastSeq {
				out.LastSeq = p.LastSeq
			}
		}
	}
	return out, nil
}

// TraceResults returns the merged serialized op order — shard 0's
// sub-trace, then shard 1's, and so on; splitting it back with ShardOf
// recovers each shard's exact serialized order — together with the per-op
// results each op produced when it executed (index-aligned with the ops).
// Empty unless the feed records traces. The equivalence tests replay the
// trace and compare against these.
func (s *ShardedFeed) TraceResults() ([]core.Op, []core.OpResult, error) {
	rs, err := s.broadcast(reqTrace)
	if err != nil {
		return nil, nil, err
	}
	var ops []core.Op
	var results []core.OpResult
	for _, r := range rs {
		ops = append(ops, r.trace...)
		results = append(results, r.traceRes...)
	}
	return ops, results, nil
}

func (s *ShardedFeed) stopWorker(w *worker) {
	s.haltWorker(w, reqStop)
}

func (s *ShardedFeed) haltWorker(w *worker, kind reqKind) {
	select {
	case w.mail <- request{kind: kind, resp: make(chan response, 1)}:
	case <-w.done:
	}
	<-w.done
}

// Close stops every shard worker and waits for them to drain. A persistent
// feed takes a final snapshot and checkpoints its store on the way down
// (drain-then-flush), so the next open recovers instantly. Further calls on
// the feed return ErrClosed; Close itself is idempotent.
func (s *ShardedFeed) Close() {
	s.closeOnce.Do(func() {
		for _, w := range s.workers {
			s.stopWorker(w)
		}
	})
}

// Kill stops every shard worker WITHOUT the final snapshot or store flush —
// the durable state is left exactly as the last applied batch wrote it,
// including an unflushed engine WAL. It simulates a process crash for the
// recovery tests; production paths use Close.
func (s *ShardedFeed) Kill() {
	s.closeOnce.Do(func() {
		for _, w := range s.workers {
			s.haltWorker(w, reqKill)
		}
	})
}
