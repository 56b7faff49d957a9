package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get when a key is absent or deleted.
var ErrNotFound = errors.New("kvstore: not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvstore: database closed")

// ErrLegacyStore is returned by Open for a directory the earlier LSM build
// of this package wrote tables into, which this build cannot read: Open
// refuses it rather than serve an empty store over them.
var ErrLegacyStore = errors.New("kvstore: directory holds a legacy LSM store (CURRENT or *.sst)")

// Options configures a DB.
type Options struct {
	// SyncWrites fsyncs the WAL on every write batch, and the checkpoint
	// image before it is installed. Defaults to false (the simulation
	// workloads issue millions of writes).
	SyncWrites bool
}

// DB is a key-value store: a checkpoint image plus a write-ahead log in
// front of a map of the live keys. It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	live   map[string]version
	log    *os.File // wal.log, opened for appending
	logBuf []byte   // the last written frame, reused
	seq    uint64   // last assigned sequence number
	closed bool
}

// version is a live key's newest value and the seq of the write that set
// it. val is never changed after it is stored, so iterators share it.
type version struct {
	val []byte
	seq uint64
}

// Open opens (creating if necessary) the store in dir: it loads the
// checkpoint image, if any, and replays the WAL above it. Open rewrites
// nothing but a torn WAL tail, which it truncates away, and stray *.tmp
// files (a checkpoint image a crash left unrenamed), which it removes.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir: %w", err)
	}
	if err := sweepDir(dir); err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opts: opts, live: map[string]version{}}
	base, err := loadBase(filepath.Join(dir, baseName), db.live)
	if err != nil {
		return nil, err
	}
	db.seq = base
	walPath := filepath.Join(dir, walName)
	validLen, size, err := replayWAL(walPath, func(key []byte, seq uint64, kind entryKind, val []byte) error {
		switch {
		case seq <= base: // in the image already: a crash came before the WAL reset
			return nil
		case seq <= db.seq:
			return fmt.Errorf("entry seq %d after seq %d", seq, db.seq)
		}
		db.set(string(key), seq, kind, clone(val))
		db.seq = seq
		return nil
	})
	if err != nil {
		return nil, err
	}
	if validLen < size {
		if err := os.Truncate(walPath, validLen); err != nil {
			return nil, fmt.Errorf("kvstore: drop torn wal tail: %w", err)
		}
	}
	if db.log, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	return db, nil
}

// sweepDir refuses a legacy LSM directory and removes stray *.tmp files.
func sweepDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("kvstore: scan dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); name == "CURRENT" || strings.HasSuffix(name, ".sst") {
			return fmt.Errorf("%w: %s", ErrLegacyStore, dir)
		}
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("kvstore: remove stray %s: %w", name, err)
			}
		}
	}
	return nil
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// Put stores a key-value pair.
func (db *DB) Put(key, value []byte) error {
	b := NewBatch()
	b.Put(key, value)
	return db.Write(b)
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	b := NewBatch()
	b.Delete(key)
	return db.Write(b)
}

// Write applies a batch atomically: the whole batch is one WAL record, and
// readers see all of it or none.
func (db *DB) Write(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	buf := openFrame(db.logBuf[:0])
	for i, op := range b.ops {
		buf = appendEntry(buf, op.key, db.seq+uint64(i)+1, op.kind, op.val)
	}
	sealFrame(buf)
	if cap(buf) <= 64<<10 { // a larger batch's buffer is not pinned
		db.logBuf = buf
	}
	if _, err := db.log.Write(buf); err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	if err := db.syncLog(); err != nil {
		return err
	}
	for _, op := range b.ops {
		db.seq++
		// The batch's copies are never written again (Put and Delete copy
		// afresh), so the map keeps them.
		db.set(op.key, db.seq, op.kind, op.val)
	}
	return nil
}

// set applies one entry to the live set: a value replaces the key's
// version, a tombstone removes the key.
func (db *DB) set(key string, seq uint64, kind entryKind, val []byte) {
	if kind == kindDelete {
		delete(db.live, key)
	} else {
		db.live[key] = version{val: val, seq: seq}
	}
}

// Get returns the current value of key.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	v, ok := db.live[string(key)]
	if !ok {
		return nil, ErrNotFound
	}
	return clone(v.val), nil
}

// Checkpoint installs the store's live set as the new checkpoint image and
// restarts the WAL empty, so a reopen replays no log. The order is
// crash-safe: a crash before the image's rename leaves the old image and
// the full WAL; a crash after it replays nothing the image holds.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := writeBase(db.dir, db.seq, db.live, db.opts.SyncWrites); err != nil {
		return err
	}
	if err := db.log.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: reset wal: %w", err)
	}
	return db.syncLog()
}

func (db *DB) syncLog() error {
	if !db.opts.SyncWrites {
		return nil
	}
	if err := db.log.Sync(); err != nil {
		return fmt.Errorf("kvstore: wal sync: %w", err)
	}
	return nil
}

// Close closes the store. Nothing is flushed: the WAL already holds every
// write.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.log.Close()
}

// Batch is an ordered set of writes applied atomically.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	key  string
	val  []byte
	kind entryKind
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put records an insert/overwrite in the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), val: clone(value), kind: kindValue})
}

// Delete records a deletion in the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), kind: kindDelete})
}
