package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"grub/internal/core"
	"grub/internal/kvstore"
	"grub/internal/repl"
)

// Persistence: each shard owns a kvstore.DB under the feed's data
// directory. Applied op batches are appended to a durable log (one typed
// RecordOpsWire value per batch, keyed by sequence number, riding the
// engine's write-ahead log), and snapshots compact the log: a RecordImage
// value holding the shard's image — the same bytes (repl.AppendSnapshot),
// anchor and all, that the replication snapshot route serves, but for the
// store's own snapshot count — supersedes every log record.
//
// A log record's payload is the batch in the binary ops encoding
// (core.AppendOps), the same bytes a binary POST /feeds/{id}/ops body and a
// replication log page carry. It is the only kind of log record: recovery
// refuses a store whose log holds any other, naming the record and its kind,
// rather than skip a batch the shard's sequence counts. The snapshot record
// is refused the same way unless it is a binary image: kind 2, the
// unanchored snapshot of earlier builds, and kind 4, their JSON image,
// included.
//
// The discipline is log-then-apply: a batch is durable before it executes,
// so after a crash the recovered state is exactly "a fresh feed replaying
// the logged prefix" — the same equivalence the sharded engine's race tests
// pin down, extended across a process boundary. Recovery installs the stored
// image (if any) through the step a follower installs a leader's image with,
// which checks the restored state against the image's anchor, so a store
// whose image does not hash to its own anchor fails to open; it then replays
// the log records above the image in sequence order, and refuses a log with
// a missing seq or a record whose seq is not its key's, naming the key and
// the seq it expected.

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

// persister owns one shard's durable store. It is touched only by the
// shard's worker goroutine (and by New before the worker starts).
type persister struct {
	db            *kvstore.DB
	snapshotEvery int

	key, rec      []byte // log key and record buffers, reused by appends (key by recovery too)
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

// snapshot stores img as the shard's durable snapshot and drops every log
// record, then checkpoints the store. The log holds exactly the batches
// applied since the last image, so every record in it is at or below
// img.Seq, or, when img is a leader's image Reset just installed, belongs to
// the local history the image supersedes.
func (p *persister) snapshot(img *repl.Snapshot) error {
	stored := *img
	stored.Snapshots = p.snapshots + 1
	// One batch — one WAL record — installs the image and drops the log
	// records it supersedes, so no crash leaves one without the other. The
	// checkpoint after it writes the store's live set (the image record) as
	// its checkpoint image, drops the tombstones and restarts its WAL empty.
	b := kvstore.NewBatch()
	b.Put([]byte(snapKey), repl.AppendSnapshot(kvstore.AppendRecordHeader(nil, kvstore.RecordImage, img.Seq), &stored))
	for it := p.db.NewIteratorFrom([]byte(logKeyPrefix)); it.Valid() && bytes.HasPrefix(it.Key(), []byte(logKeyPrefix)); it.Next() {
		b.Delete(it.Key())
	}
	if err := p.db.Write(b); err != nil {
		return fmt.Errorf("shard: write snapshot: %w", err)
	}
	if err := p.db.Checkpoint(); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	p.snapshots = stored.Snapshots
	p.nextSeq = img.Seq + 1
	p.loggedBatches = 0
	p.sinceSnapshot = 0
	return nil
}

// snapshotDue reports whether the automatic snapshot cadence has come round.
func (p *persister) snapshotDue() bool {
	return p.snapshotEvery > 0 && p.sinceSnapshot >= p.snapshotEvery
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

func (p *persister) stat() PersistStat {
	return PersistStat{Snapshots: p.snapshots, LoggedBatches: p.loggedBatches, LastSeq: p.nextSeq - 1}
}

// recover loads the shard's durable state into st: the stored image, when
// there is one, through install — refused, and the store with it, unless it
// hashes to its own anchor — or else a fresh feed from build; then every log
// record above it replays through the normal apply path, and a store whose
// log skips a seq is refused. Ops, batches and base gas continue from where
// the previous process stopped.
func (p *persister) recover(st *shardState, build func(int) (*core.Feed, error)) error {
	raw, err := p.db.Get([]byte(snapKey))
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		if err := st.fresh(build); err != nil {
			return err
		}
	case err != nil:
		return fmt.Errorf("shard: read snapshot: %w", err)
	default:
		kind, _, payload, err := kvstore.DecodeTypedRecord(raw)
		if err != nil {
			return fmt.Errorf("shard: corrupt snapshot record: %w", err)
		}
		if kind != kvstore.RecordImage {
			return fmt.Errorf("shard: snapshot record %q has kind %d, not an image (kind %d)", snapKey, kind, kvstore.RecordImage)
		}
		img, err := repl.DecodeSnapshot(payload)
		if err != nil {
			return fmt.Errorf("shard: snapshot record: %w", err)
		}
		if err := st.install(img); err != nil {
			return fmt.Errorf("shard: recover snapshot: %w", err)
		}
		p.snapshots, p.nextSeq = img.Snapshots, img.Seq+1
	}

	// Replay the log above the image, in sequence order: the cursor-
	// positioned iterator starts at the first retained record past it (the
	// fixed-width hex key preserves numeric order). Every replayed batch
	// re-anchors into the replication log, so a follower that was tailing
	// this shard before the crash resumes without a bootstrap as long as
	// its cursor is above the image. The records must run without a gap
	// from just above the image, each under its own seq's key: a missing
	// batch would leave the shard a batch short while later ones still
	// count it.
	for it := p.db.NewIteratorFrom(logKey(p.nextSeq)); it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), []byte(logKeyPrefix)) {
			break // past the log keyspace
		}
		kind, seq, payload, err := kvstore.DecodeTypedRecord(it.Value())
		if err != nil {
			return fmt.Errorf("shard: corrupt log record %q: %w", it.Key(), err)
		}
		p.key = appendLogKey(p.key[:0], p.nextSeq)
		if seq != p.nextSeq || !bytes.Equal(it.Key(), p.key) {
			return fmt.Errorf("shard: log record %q holds seq %d, want %q with seq %d", it.Key(), seq, p.key, p.nextSeq)
		}
		if kind != kvstore.RecordOpsWire {
			return fmt.Errorf("shard: log record %q has kind %d, not a batch (kind %d)", it.Key(), kind, kvstore.RecordOpsWire)
		}
		ops, err := core.DecodeOps(payload)
		if err != nil {
			return fmt.Errorf("shard: decode log record %q: %w", it.Key(), err)
		}
		_, entry := st.applyBatch(ops, false)
		p.loggedBatches++
		if st.repl != nil {
			st.repl.append(entry)
		}
		p.nextSeq++
	}
	return nil
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
