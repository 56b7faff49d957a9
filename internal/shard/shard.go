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
	"grub/internal/merkle"
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
	// which the batch anchor has already sealed. A client batch copies the
	// nodes it writes only if a reader pinned the view before it; a view
	// nobody read is retracted and edited in place. Replicated applies
	// always copy, so a refused batch leaves the last verified view intact.
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
	// Restore rebuilds one shard's feed from a snapshot for the
	// replication bootstrap path (Reset); it must wire the feed exactly as
	// the build callback would, then install the snapshot state. Falls
	// back to Persist.Restore when nil.
	Restore func(shard int, snap *core.FeedSnapshot) (*core.Feed, error)
	// Stages, when non-nil, receives per-stage batch latency
	// observations (mailbox wait, WAL persist, apply, repl append, view
	// publish) for every shard of this feed. The histograms are shared
	// across shards — series are labeled by feed, with the shard index
	// carried only on trace spans. Nil disables stage timing entirely.
	Stages *obs.FeedStages
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
	reqOps reqKind = iota
	reqStats
	reqTrace
	reqSnapshot
	reqRepl      // replicated apply: log-then-apply + anchor check
	reqReplSnap  // consistent bootstrap snapshot at the current seq
	reqReplReset // install a bootstrap snapshot wholesale
	reqStop      // graceful: final snapshot (if persistent), close store
	reqKill      // crash simulation: abandon the store as-is
)

type request struct {
	kind  reqKind
	ops   []core.Op
	entry *repl.Entry    // reqRepl
	snap  *repl.Snapshot // reqReplReset
	resp  chan response
	// tr carries the batch's trace (nil for untraced requests); enq is
	// the mailbox-enqueue instant, stamped only when the feed times
	// stages or the batch is traced, and yields the mailbox-wait span.
	tr  *obs.Trace
	enq time.Time
}

type response struct {
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
	feed *core.Feed
	// base is the genesis digest cost, excluded from gas/op. It survives
	// restarts via the snapshot metadata.
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
	stages *obs.FeedStages
	// load receives per-batch ops/gas counts (nil disables).
	load *obs.RateMeter
}

// applyBatch is the one way a batch executes on a shard, whoever sent it — a
// client, a replication leader or the shard's own durable log on recovery:
// run the ops, meter the work (op count and the gas the batch charged),
// advance the lifetime counters, keep the trace when recording, and anchor
// the post-apply state. It returns the per-op results and the batch's
// replication entry; what surrounds the apply (WAL append, anchor check,
// replication-log append, view publication, stage timing) is the caller's.
func (st *shardState) applyBatch(ops []core.Op) ([]core.OpResult, repl.Entry) {
	gasBefore := st.feed.FeedGas()
	results := core.ApplyOps(st.feed, ops)
	if st.load != nil {
		st.load.Add(len(ops), float64(st.feed.FeedGas()-gasBefore), 0, 0)
	}
	st.ops += len(ops)
	st.batches++
	if st.record {
		st.trace = append(st.trace, ops...)
		st.traceRes = append(st.traceRes, results...)
	}
	root, count, height := st.anchor()
	return results, repl.Entry{Seq: uint64(st.batches), Ops: ops, Root: root, Count: count, Height: height}
}

// stageClock stamps successive pipeline stages of one batch onto the
// shard's stage histograms and, when the batch is traced, its span
// record. The zero value is inert; newStageClock arms it only when
// there is somewhere to record to, so untimed feeds skip the clock
// reads entirely.
type stageClock struct {
	stages *obs.FeedStages
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
		d := c.start.Sub(req.enq)
		c.stages.GetMailbox().Observe(d.Seconds())
		c.tr.AddSpan(obs.StageMailbox, shard, req.enq, d)
	}
	return c
}

// mark closes the current stage: the time since the previous mark (or
// the clock's start) is recorded under stage on h and as a span.
func (c *stageClock) mark(stage string, h *obs.Histogram) {
	if !c.on {
		return
	}
	now := time.Now()
	d := now.Sub(c.last)
	h.Observe(d.Seconds())
	c.tr.AddSpan(stage, c.shard, c.last, d)
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
func (c *stageClock) total(stage string, h *obs.Histogram) {
	if !c.on {
		return
	}
	d := time.Since(c.start)
	h.Observe(d.Seconds())
	c.tr.AddSpan(stage, c.shard, c.start, d)
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
	// restore rebuilds the shard's feed from a snapshot (replication
	// bootstrap); nil disables Reset.
	restore func(shard int, snap *core.FeedSnapshot) (*core.Feed, error)
}

// publishView snapshots the shard's current state into a read view and
// installs it: the current version of the feed's authenticated record set,
// its root, the shard chain's height, and the batch count as the monotone
// publication sequence. Every batch ends with anchor(), which seals the set,
// so Capture here has nothing left to hash (the first view after a restore
// is the exception; Capture seals it, on the shard's own recovery goroutine
// in New): it is a root-pointer capture whose cost is independent of the
// record count, and readers of the view find every node hashed. The set
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
// reader pinned the view, retracting it means none ever will, and the batch
// edits the view's nodes in place; otherwise the set ends its generation,
// and the batch copies every node the view reaches before writing it. After
// a retraction publishView must run before the worker waits for its next
// request: readers that found the view retracted wait for its successor.
func (w *worker) releaseView(st *shardState) {
	if w.views != nil && !w.views.Retract(w.idx) {
		st.feed.DO.Set().EndGeneration()
	}
}

// anchor reads the shard's current post-apply anchor. Root seals the set:
// the hashing the batch's mutations deferred — each node on the union of
// their root paths, once — runs here, on the worker, in the apply stage.
func (st *shardState) anchor() (root merkle.Hash, count int, height uint64) {
	set := st.feed.DO.Set()
	return set.Root(), set.Len(), st.feed.Chain.Height()
}

// mailboxDepth buffers sub-batch sends so a scatter never stalls on one busy
// shard while the others sit idle.
const mailboxDepth = 64

func (w *worker) loop(st *shardState) {
	defer close(w.done)
	for req := range w.mail {
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
					if serr := st.persist.snapshot(st); err == nil {
						err = serr
					}
				}
				if cerr := st.persist.db.Close(); err == nil {
					err = cerr
				}
			}
			req.resp <- response{err: err}
			return
		case reqKill:
			if st.persist != nil {
				// Simulated crash: no snapshot, no flush. Close only
				// releases file handles; recovery must come from the
				// engine's WAL exactly as after a process death.
				st.persist.db.Close()
			}
			req.resp <- response{}
			return
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
			req.resp <- response{stat: stat}
		case reqRepl:
			clk := newStageClock(st, req, w.idx)
			req.resp <- response{err: w.applyReplicated(st, req.entry, &clk)}
		case reqReplSnap:
			snap, err := w.replSnapshot(st)
			req.resp <- response{snap: snap, err: err}
		case reqReplReset:
			req.resp <- response{err: w.resetReplicated(st, req.snap)}
		case reqSnapshot:
			if st.persist == nil {
				req.resp <- response{err: ErrNotPersistent}
				continue
			}
			if st.diverged != nil {
				// Snapshotting would durably adopt the refused fork.
				req.resp <- response{err: st.diverged}
				continue
			}
			err := st.persistErr
			st.persistErr = nil
			if serr := st.persist.snapshot(st); err == nil {
				err = serr
			}
			var stat ShardStat
			if err == nil {
				ps := st.persist.stat()
				stat = ShardStat{Shard: w.idx, Persist: &ps}
			}
			req.resp <- response{stat: stat, err: err}
		case reqTrace:
			tr := make([]core.Op, len(st.trace))
			copy(tr, st.trace)
			rs := make([]core.OpResult, len(st.traceRes))
			copy(rs, st.traceRes)
			req.resp <- response{trace: tr, traceRes: rs}
		default:
			if st.diverged != nil {
				// The shard is halted on a refused fork: accepting new
				// writes (or letting an auto-snapshot run) would build
				// on — and eventually persist — unverified state.
				req.resp <- response{err: st.diverged}
				continue
			}
			clk := newStageClock(st, req, w.idx)
			if st.persist != nil {
				// Log-then-apply: the batch is durable before it
				// executes, so recovery replays exactly the logged
				// prefix.
				if err := st.persist.appendBatch(req.ops); err != nil {
					req.resp <- response{err: err}
					continue
				}
				clk.mark(obs.StagePersist, clk.stages.GetPersist())
			}
			// From here to publishView nothing returns early.
			w.releaseView(st)
			results, entry := st.applyBatch(req.ops)
			clk.mark(obs.StageApply, clk.stages.GetApply())
			if st.persist != nil {
				if serr := st.persist.maybeSnapshot(st); serr != nil {
					st.persistErr = serr
				}
				clk.skip() // compaction has no stage of its own
			}
			if st.repl != nil {
				st.repl.append(entry)
				clk.mark(obs.StageReplAppend, clk.stages.GetReplAppend())
			}
			// Publish before acking so a client that saw its batch
			// complete reads its own writes from the next view.
			w.publishView(st)
			clk.mark(obs.StagePublish, clk.stages.GetPublish())
			req.resp <- response{results: results}
		}
	}
}

// applyReplicated replays one shipped batch through the same log-then-apply
// path client batches take, then verifies the post-apply state against the
// leader's anchor. On a mismatch the batch is rolled back out of the durable
// log (it must not replay into recovered state), the shard halts replication
// permanently, and the previously published view keeps serving — the shard
// refuses to fork rather than serving unverified state. (A crash between
// the log append and the rollback can leave the refused batch durable; the
// next replicated apply after recovery re-detects the divergence.)
func (w *worker) applyReplicated(st *shardState, e *repl.Entry, clk *stageClock) error {
	if st.repl == nil {
		return ErrNotReplicating
	}
	if st.diverged != nil {
		return st.diverged
	}
	if want := uint64(st.batches) + 1; e.Seq != want {
		return fmt.Errorf("%w: shard %d expects seq %d, got %d", repl.ErrSeqGap, w.idx, want, e.Seq)
	}
	if st.persist != nil {
		if err := st.persist.appendBatch(e.Ops); err != nil {
			return err
		}
		clk.mark(obs.StagePersist, clk.stages.GetPersist())
	}
	// A diverged batch must leave the current view serving, so its nodes
	// are copied, never edited, whether or not a reader pinned it.
	if w.views != nil {
		st.feed.DO.Set().EndGeneration()
	}
	_, got := st.applyBatch(e.Ops)
	clk.mark(obs.StageApply, clk.stages.GetApply())
	if got.Root != e.Root || got.Count != e.Count {
		div := &repl.DivergenceError{
			Shard: w.idx, Seq: e.Seq,
			WantRoot: e.Root, GotRoot: got.Root,
			WantCount: e.Count, GotCount: got.Count,
		}
		st.diverged = div
		if st.persist != nil {
			if rerr := st.persist.rollbackBatch(e.Seq); rerr != nil {
				st.persistErr = rerr
			}
		}
		return div
	}
	st.repl.append(*e)
	clk.mark(obs.StageReplAppend, clk.stages.GetReplAppend())
	if st.persist != nil {
		if serr := st.persist.maybeSnapshot(st); serr != nil {
			st.persistErr = serr
		}
		clk.skip()
	}
	w.publishView(st)
	clk.mark(obs.StagePublish, clk.stages.GetPublish())
	clk.total(obs.StageFollowerApply, clk.stages.GetFollowerApply())
	return nil
}

// replSnapshot captures a consistent bootstrap snapshot of the shard at its
// current sequence. A diverged shard refuses: exporting its in-memory state
// would hand the refused fork to chained followers.
func (w *worker) replSnapshot(st *shardState) (*repl.Snapshot, error) {
	if st.repl == nil {
		return nil, ErrNotReplicating
	}
	if st.diverged != nil {
		return nil, st.diverged
	}
	fs, err := st.feed.Snapshot()
	if err != nil {
		return nil, err
	}
	root, count, height := st.anchor()
	return &repl.Snapshot{
		Shard: w.idx, Seq: uint64(st.batches),
		Root: root, Count: count, Height: height,
		Feed: fs, Ops: st.ops, BaseGas: st.base,
	}, nil
}

// resetReplicated installs a bootstrap snapshot wholesale: the restored feed
// must hash to the snapshot's advertised anchor before it replaces the
// shard's state (verified catch-up — a corrupt or lying snapshot is refused
// and the current state stays). On success the shard's counters, replication
// log and durable store all restart from the snapshot's sequence.
func (w *worker) resetReplicated(st *shardState, snap *repl.Snapshot) error {
	if st.repl == nil {
		return ErrNotReplicating
	}
	if w.restore == nil {
		return fmt.Errorf("shard: shard %d has no Restore callback for replication bootstrap", w.idx)
	}
	feed, err := w.restore(w.idx, snap.Feed)
	if err != nil {
		return fmt.Errorf("shard: restore bootstrap snapshot: %w", err)
	}
	set := feed.DO.Set()
	if root, count := set.Root(), set.Len(); root != snap.Root || count != snap.Count {
		return &repl.DivergenceError{
			Shard: w.idx, Seq: snap.Seq,
			WantRoot: snap.Root, GotRoot: root,
			WantCount: snap.Count, GotCount: count,
		}
	}
	st.feed = feed
	st.ops = snap.Ops
	st.batches = int(snap.Seq)
	st.base = snap.BaseGas
	st.trace, st.traceRes = nil, nil // earlier history was superseded wholesale
	st.diverged = nil
	st.repl.reset(snap.Seq)
	if st.persist != nil {
		if err := st.persist.resetTo(st, snap.Seq); err != nil {
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
	stages *obs.FeedStages
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
		s.engine.SetProofHistogram(opts.Stages.GetProofBuild())
	}
	restore := opts.Restore
	if restore == nil && opts.Persist != nil {
		restore = opts.Persist.Restore
	}
	states := make([]*shardState, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range states {
		w := &worker{idx: i, mail: make(chan request, mailboxDepth), done: make(chan struct{}), views: s.engine, restore: restore}
		s.workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := newShardState(opts, i, build)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			// Initial view: reads (including absence proofs over the empty
			// set, and recovered state after a restart) work before the
			// first batch lands. Sealing a restored set happens here, in
			// parallel with the other shards.
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
// sequence (recovery re-anchors every replayed batch into it).
func newShardState(opts Options, idx int, build func(int) (*core.Feed, error)) (*shardState, error) {
	if opts.Persist == nil {
		f, err := build(idx)
		if err != nil {
			return nil, err
		}
		st := &shardState{feed: f, base: f.FeedGas(), record: opts.RecordTrace, stages: opts.Stages, load: opts.Load}
		if opts.Repl {
			st.repl = newReplLog(opts.ReplRetain)
		}
		return st, nil
	}
	p, err := openPersister(*opts.Persist, idx)
	if err != nil {
		return nil, err
	}
	st, err := recoverShard(p, idx, opts, build)
	if err != nil {
		p.db.Close()
		return nil, err
	}
	st.stages = opts.Stages
	st.load = opts.Load
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

// recv waits for one response from a previously sent request.
func (s *ShardedFeed) recv(w *worker, resp chan response) (response, error) {
	select {
	case r := <-resp:
		return r, nil
	case <-w.done:
		return response{}, ErrClosed
	}
}

// Do executes one batch: it splits the ops per shard by key hash, runs the
// sub-batches concurrently, and merges the results back into the input
// order. The error is non-nil only when the feed is closed.
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
		w := s.workers[0]
		resp := make(chan response, 1)
		if err := s.send(w, request{kind: reqOps, ops: ops, resp: resp, tr: tr, enq: enq}); err != nil {
			return nil, err
		}
		r, err := s.recv(w, resp)
		if err != nil {
			return nil, err
		}
		return r.results, r.err
	}

	// Scatter: split per shard, preserving each key's relative order.
	subOps := make([][]core.Op, n)
	subPos := make([][]int, n)
	for i, op := range ops {
		sh := ShardOf(op.Key, n)
		subOps[sh] = append(subOps[sh], op)
		subPos[sh] = append(subPos[sh], i)
	}
	resps := make([]chan response, n)
	for sh := 0; sh < n; sh++ {
		if len(subOps[sh]) == 0 {
			continue
		}
		resps[sh] = make(chan response, 1)
		if err := s.send(s.workers[sh], request{kind: reqOps, ops: subOps[sh], resp: resps[sh], tr: tr, enq: enq}); err != nil {
			return nil, err
		}
	}

	// Gather: merge per-shard results back into the caller's order.
	out := make([]core.OpResult, len(ops))
	for sh := 0; sh < n; sh++ {
		if resps[sh] == nil {
			continue
		}
		r, err := s.recv(s.workers[sh], resps[sh])
		if err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, r.err
		}
		for j, pos := range subPos[sh] {
			out[pos] = r.results[j]
		}
	}
	return out, nil
}

// broadcast sends one request kind to every shard and gathers the responses
// in shard order.
func (s *ShardedFeed) broadcast(kind reqKind) ([]response, error) {
	resps := make([]chan response, len(s.workers))
	for i, w := range s.workers {
		resps[i] = make(chan response, 1)
		if err := s.send(w, request{kind: kind, resp: resps[i]}); err != nil {
			return nil, err
		}
	}
	out := make([]response, len(s.workers))
	for i, w := range s.workers {
		r, err := s.recv(w, resps[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
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

// Trace returns the merged serialized op order: shard 0's sub-trace, then
// shard 1's, and so on. Splitting it back with ShardOf recovers each shard's
// exact serialized order. Empty unless the feed records traces.
func (s *ShardedFeed) Trace() ([]core.Op, error) {
	ops, _, err := s.TraceResults()
	return ops, err
}

// TraceResults returns the merged trace together with the per-op results
// each op produced when it executed (index-aligned with the ops). The
// equivalence tests replay the trace and compare against these.
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

// ShardTraces returns each shard's serialized op order separately.
func (s *ShardedFeed) ShardTraces() ([][]core.Op, error) {
	rs, err := s.broadcast(reqTrace)
	if err != nil {
		return nil, err
	}
	out := make([][]core.Op, len(rs))
	for i, r := range rs {
		out[i] = r.trace
	}
	return out, nil
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
