package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/kvstore"
)

// Persistence: each shard owns a kvstore.DB under the feed's data
// directory. Applied op batches are appended to a durable log (one typed
// RecordOpsWire value per batch, keyed by sequence number, riding the
// engine's write-ahead log), and snapshots compact the log: a RecordSnapshot
// value carrying the shard's complete feed state (core.FeedSnapshot) plus its
// counter metadata supersedes every log record at or below its sequence.
//
// A log record's payload is the batch in the binary ops encoding
// (core.AppendOps), the same bytes a binary POST /feeds/{id}/ops body and a
// replication log page carry. It is the only kind of log record: recovery
// refuses a store whose log holds any other, naming the record and its kind,
// rather than skip a batch the shard's sequence counts.
//
// The discipline is log-then-apply: a batch is durable before it executes,
// so after a crash the recovered state is exactly "a fresh feed replaying
// the logged prefix" — the same equivalence the sharded engine's race tests
// pin down, extended across a process boundary. Recovery loads the newest
// snapshot (if any), restores the feed from it, and replays the log records
// above it in sequence order.

// PersistOptions configures per-shard durability.
type PersistOptions struct {
	// Dir is the feed's data directory; shard i stores under Dir/shard-<i>.
	Dir string
	// SnapshotEvery takes an automatic snapshot after that many applied
	// batches since the last one (0 = only explicit Snapshot calls and the
	// final drain-then-flush on Close).
	SnapshotEvery int
	// SyncWrites fsyncs every log append. Off by default: the crash model
	// of the tests is process death, not host death.
	SyncWrites bool
	// Restore rebuilds one shard's feed from a snapshot (same configuration
	// the build callback uses, plus the snapshot's state). Options.Restore,
	// when set, takes its place. One of the two is required when Dir holds
	// state from a previous process; the gateway supplies it from the
	// feed's config.
	Restore func(shard int, snap *core.FeedSnapshot) (*core.Feed, error)
}

// PersistStat reports one shard's durability counters.
type PersistStat struct {
	// Snapshots counts snapshots taken over the store's lifetime.
	Snapshots int `json:"snapshots"`
	// LoggedBatches counts log records retained since the last snapshot
	// (the replay length a crash right now would pay).
	LoggedBatches int `json:"loggedBatches"`
	// LastSeq is the sequence number of the last logged batch.
	LastSeq uint64 `json:"lastSeq"`
	// LastError reports the most recent automatic-snapshot failure, a
	// failed store checkpoint included; empty when healthy. The log keeps
	// growing (and stays replayable) while snapshots fail, so this is a
	// health signal, not data loss.
	LastError string `json:"lastError,omitempty"`
}

// PersistStats aggregates durability counters across shards.
type PersistStats struct {
	Snapshots     int    `json:"snapshots"`
	LoggedBatches int    `json:"loggedBatches"`
	LastSeq       uint64 `json:"lastSeq"`
	// LastError is the first shard's reported failure, if any.
	LastError string `json:"lastError,omitempty"`
}

const (
	logKeyPrefix = "log/"
	snapKey      = "snap"
)

func logKey(seq uint64) []byte { return appendLogKey(nil, seq) }

// appendLogKey appends seq's log key: the prefix, then seq as 16 hex digits,
// so keys sort in sequence order.
func appendLogKey(b []byte, seq uint64) []byte {
	b = append(b, logKeyPrefix...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[seq>>shift&0xf])
	}
	return b
}

// maxRecordBuf caps the record buffer a persister keeps between batches: a
// larger batch's buffer is dropped after its append rather than pinned.
const maxRecordBuf = 1 << 20

// shardMeta is the metadata half of a snapshot record: the worker counters
// that must survive alongside the feed state for stats continuity.
type shardMeta struct {
	Feed      *core.FeedSnapshot `json:"feed"`
	Ops       int                `json:"ops"`
	Batches   int                `json:"batches"`
	BaseGas   gas.Gas            `json:"baseGas"`
	Snapshots int                `json:"snapshots"`
}

// persister owns one shard's durable store. It is touched only by the
// shard's worker goroutine (and by New before the worker starts).
type persister struct {
	db            *kvstore.DB
	snapshotEvery int

	key, rec      []byte // the last appended batch's log key and record, reused
	nextSeq       uint64 // sequence the next logged batch gets
	loggedBatches int    // log records since the last snapshot
	snapshots     int
	sinceSnapshot int // applied batches since the last snapshot
}

func openPersister(opts PersistOptions, idx int) (*persister, error) {
	dir := filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", idx))
	db, err := kvstore.Open(dir, kvstore.Options{SyncWrites: opts.SyncWrites})
	if err != nil {
		return nil, fmt.Errorf("shard: open store: %w", err)
	}
	return &persister{
		db:            db,
		snapshotEvery: opts.SnapshotEvery,
		nextSeq:       1,
	}, nil
}

// appendBatch logs one op batch before it is applied.
func (p *persister) appendBatch(ops []core.Op) error {
	seq := p.nextSeq
	p.key = appendLogKey(p.key[:0], seq)
	p.rec = core.AppendOps(kvstore.AppendRecordHeader(p.rec[:0], kvstore.RecordOpsWire, seq), ops)
	err := p.db.Put(p.key, p.rec) // Put copies both
	if cap(p.rec) > maxRecordBuf {
		p.rec = nil
	}
	if err != nil {
		return fmt.Errorf("shard: log batch %d: %w", seq, err)
	}
	p.nextSeq++
	p.loggedBatches++
	p.sinceSnapshot++
	return nil
}

// snapshot persists the shard's complete state and compacts the log below
// it. st is the worker's live accounting.
func (p *persister) snapshot(st *shardState) error {
	fs, err := st.feed.Snapshot()
	if err != nil {
		return err
	}
	meta := shardMeta{
		Feed:      fs,
		Ops:       st.ops,
		Batches:   st.batches,
		BaseGas:   st.base,
		Snapshots: p.snapshots + 1,
	}
	payload, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("shard: encode snapshot: %w", err)
	}
	lastSeq := p.nextSeq - 1
	// One batch — one WAL record — installs the snapshot and drops the log
	// records it supersedes, so no crash leaves one without the other. The
	// checkpoint after it writes the store's live set (the snapshot record)
	// as its checkpoint image, drops the tombstones and restarts its WAL
	// empty.
	b := kvstore.NewBatch()
	b.Put([]byte(snapKey), kvstore.EncodeRecord(kvstore.RecordSnapshot, lastSeq, payload))
	for it := p.db.NewIteratorFrom([]byte(logKeyPrefix)); it.Valid(); it.Next() {
		key := string(it.Key())
		if !strings.HasPrefix(key, logKeyPrefix) {
			break // past the log keyspace (keys iterate sorted)
		}
		_, seq, _, err := kvstore.DecodeTypedRecord(it.Value())
		if err != nil {
			return fmt.Errorf("shard: corrupt log record %q: %w", key, err)
		}
		if seq <= lastSeq {
			b.Delete([]byte(key))
		}
	}
	if err := p.db.Write(b); err != nil {
		return fmt.Errorf("shard: write snapshot: %w", err)
	}
	if err := p.db.Checkpoint(); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	p.snapshots++
	p.loggedBatches = 0
	p.sinceSnapshot = 0
	return nil
}

// maybeSnapshot takes an automatic snapshot when the configured cadence is
// due.
func (p *persister) maybeSnapshot(st *shardState) error {
	if p.snapshotEvery <= 0 || p.sinceSnapshot < p.snapshotEvery {
		return nil
	}
	return p.snapshot(st)
}

// rollbackBatch removes the most recently logged batch — one the replication
// anchor check refused — so it cannot replay into recovered state. seq must
// be the last appended sequence.
func (p *persister) rollbackBatch(seq uint64) error {
	if seq != p.nextSeq-1 {
		return fmt.Errorf("shard: rollback seq %d is not the last logged %d", seq, p.nextSeq-1)
	}
	if err := p.db.Delete(logKey(seq)); err != nil {
		return fmt.Errorf("shard: rollback batch %d: %w", seq, err)
	}
	p.nextSeq = seq
	p.loggedBatches--
	p.sinceSnapshot--
	return nil
}

// resetTo reinstalls the store around a replication bootstrap: every local
// log record is dropped (the local history — possibly stale or diverged —
// is superseded wholesale by the leader snapshot) and the freshly installed
// state is snapshotted at seq as the new durable base.
func (p *persister) resetTo(st *shardState, seq uint64) error {
	b := kvstore.NewBatch()
	for it := p.db.NewIteratorFrom([]byte(logKeyPrefix)); it.Valid(); it.Next() {
		if !strings.HasPrefix(string(it.Key()), logKeyPrefix) {
			break
		}
		b.Delete(it.Key())
	}
	if err := p.db.Write(b); err != nil {
		return fmt.Errorf("shard: drop superseded log: %w", err)
	}
	p.nextSeq = seq + 1
	p.loggedBatches = 0
	p.sinceSnapshot = 0
	return p.snapshot(st)
}

func (p *persister) stat() PersistStat {
	return PersistStat{Snapshots: p.snapshots, LoggedBatches: p.loggedBatches, LastSeq: p.nextSeq - 1}
}

// recover loads the shard's durable state: the newest snapshot (if any)
// restores the feed through restore, and every log record above it replays
// through the normal execution path. It returns the recovered shard state,
// with ops, batches and base gas continuing from where the previous process
// stopped.
func recoverShard(p *persister, idx int, opts Options, build func(int) (*core.Feed, error), restore func(int, *core.FeedSnapshot) (*core.Feed, error)) (*shardState, error) {
	var (
		feed    *core.Feed
		st      shardState
		lastSeq uint64
	)
	if raw, err := p.db.Get([]byte(snapKey)); err == nil {
		kind, seq, payload, derr := kvstore.DecodeTypedRecord(raw)
		if derr != nil {
			return nil, fmt.Errorf("shard: corrupt snapshot record: %w", derr)
		}
		if kind != kvstore.RecordSnapshot {
			return nil, fmt.Errorf("shard: snapshot key holds kind %d", kind)
		}
		var meta shardMeta
		if err := json.Unmarshal(payload, &meta); err != nil {
			return nil, fmt.Errorf("shard: decode snapshot: %w", err)
		}
		if restore == nil {
			return nil, fmt.Errorf("shard: store has a snapshot but no Restore callback is configured")
		}
		feed, err = restore(idx, meta.Feed)
		if err != nil {
			return nil, fmt.Errorf("shard: restore feed: %w", err)
		}
		st = shardState{ops: meta.Ops, batches: meta.Batches, base: meta.BaseGas}
		p.snapshots = meta.Snapshots
		lastSeq = seq
	} else if !errors.Is(err, kvstore.ErrNotFound) {
		return nil, fmt.Errorf("shard: read snapshot: %w", err)
	} else {
		feed, err = build(idx)
		if err != nil {
			return nil, err
		}
		st = shardState{base: feed.FeedGas()}
	}
	st.feed = feed
	st.record = opts.RecordTrace
	if opts.Repl {
		// The replication log restarts at the snapshot's sequence; every
		// replayed batch below re-anchors into it, so a follower that was
		// tailing this shard before the crash resumes without a snapshot
		// bootstrap as long as its cursor is above the durable snapshot.
		st.repl = newReplLog(opts.ReplRetain)
		st.repl.reset(lastSeq)
	}

	// Replay the log above the snapshot, in sequence order: the cursor-
	// positioned iterator starts at the first retained record past the
	// snapshot (the fixed-width hex key preserves numeric order).
	maxSeq := lastSeq
	for it := p.db.NewIteratorFrom(logKey(lastSeq + 1)); it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), []byte(logKeyPrefix)) {
			break // past the log keyspace
		}
		kind, seq, payload, err := kvstore.DecodeTypedRecord(it.Value())
		if err != nil {
			return nil, fmt.Errorf("shard: corrupt log record %q: %w", it.Key(), err)
		}
		if seq <= lastSeq {
			continue
		}
		if kind != kvstore.RecordOpsWire {
			return nil, fmt.Errorf("shard: log record %q has kind %d, not a batch (kind %d)", it.Key(), kind, kvstore.RecordOpsWire)
		}
		ops, err := core.DecodeOps(payload)
		if err != nil {
			return nil, fmt.Errorf("shard: decode log record %q: %w", it.Key(), err)
		}
		_, entry := st.applyBatch(ops)
		p.loggedBatches++
		if st.repl != nil {
			st.repl.append(entry)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	p.nextSeq = maxSeq + 1
	st.persist = p
	return &st, nil
}

// RemoveStore deletes a feed's on-disk persistence directory. The gateway
// calls it when a persisted feed is explicitly closed (the feed is gone
// from the manifest; its state must not resurrect).
func RemoveStore(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("shard: remove store: %w", err)
	}
	return nil
}
