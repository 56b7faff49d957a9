package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNotFound is returned by Get when a key is absent or deleted.
var ErrNotFound = errors.New("kvstore: not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvstore: database closed")

// Options configures a DB. The two exported fields are the ones a caller
// sets; the sizing and scheduling knobs below them have one production value
// each (their defaults) and exist so in-package tests can force flushes and
// compactions on small data and at deterministic points.
type Options struct {
	// SyncWrites forces an fsync per write batch. Defaults to false
	// (the simulation workloads issue millions of writes).
	SyncWrites bool
	// Metrics receives the engine's telemetry (see NewMetrics); nil means
	// no-op counters.
	Metrics *Metrics

	// memtableBytes is the approximate size at which the memtable is
	// flushed to an SSTable. Defaults to 1 MiB.
	memtableBytes int
	// l0Compact is the number of level-0 tables that triggers a
	// compaction into level 1. Defaults to 4.
	l0Compact int
	// tableTargetBytes is the size at which compaction splits its output
	// into a new table. Defaults to 2 MiB.
	tableTargetBytes int
	// levelBaseBytes caps level 1; each deeper level holds 8x more before
	// it triggers a compaction into the next. Defaults to 8 MiB.
	levelBaseBytes int
	// disableBackgroundCompaction keeps all compaction explicit (Compact /
	// Checkpoint calls) for deterministic tests; production stores compact
	// in the background so compaction never blocks the write path.
	disableBackgroundCompaction bool
	// compactionHook, when set (crash-point tests), runs at the named
	// compaction stages: "picked" (inputs chosen, nothing written), "built"
	// (output tables durable, manifest still old) and "swapped" (manifest
	// installed, input files not yet deleted). Set before Open; never
	// mutated after.
	compactionHook func(stage string)
}

func (o Options) withDefaults() Options {
	if o.memtableBytes <= 0 {
		o.memtableBytes = 1 << 20
	}
	if o.l0Compact <= 0 {
		o.l0Compact = 4
	}
	if o.tableTargetBytes <= 0 {
		o.tableTargetBytes = 2 << 20
	}
	if o.levelBaseBytes <= 0 {
		o.levelBaseBytes = 8 << 20
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o
}

// DB is an LSM-tree key-value store. It is safe for concurrent use.
type DB struct {
	mu   sync.RWMutex
	dir  string
	opts Options
	mem  *memtable
	wal  *wal
	seq  uint64 // last assigned sequence number
	// levels[0] holds overlapping flush outputs, newest first; every deeper
	// level is sorted by smallest key and non-overlapping within itself.
	levels  [][]*sstable
	nextNum atomic.Uint64
	met     *Metrics
	closed  bool

	// Background compaction. compactMu serializes compactions (the worker
	// and explicit Compact calls); the worker wakes on compactCh and exits
	// when stop closes. compactErr records the first background failure.
	compactMu  sync.Mutex
	compactCh  chan struct{}
	stop       chan struct{}
	wg         sync.WaitGroup
	bgStarted  bool
	compactErr error
}

// Open opens (creating if necessary) a store in dir and replays any WAL left
// by a previous process. Table files not referenced by the manifest — debris
// of a crash between building tables and installing the manifest — are
// removed; their contents are either still in the WAL (unflushed) or in the
// manifest-referenced tables a crashed compaction was replacing.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir: %w", err)
	}
	db := &DB{dir: dir, opts: opts, mem: newMemtable(), met: opts.Metrics}
	db.nextNum.Store(1)
	if err := db.loadTables(); err != nil {
		return nil, err
	}
	if err := db.removeOrphans(); err != nil {
		return nil, err
	}
	// Replay WAL into the fresh memtable. A torn tail (crash mid-write) is
	// physically discarded: truncating to the intact prefix keeps the log
	// appendable — records written after recovery must follow the last
	// good one, not the damaged bytes.
	truncated, validLen, err := replayWAL(db.walPath(), func(key []byte, seq uint64, kind entryKind, val []byte) {
		db.mem.add(key, seq, kind, val)
		if seq > db.seq {
			db.seq = seq
		}
	})
	if err != nil {
		return nil, err
	}
	if truncated {
		if err := os.Truncate(db.walPath(), validLen); err != nil {
			return nil, fmt.Errorf("kvstore: drop torn wal tail: %w", err)
		}
	}
	w, err := openWAL(db.walPath())
	if err != nil {
		return nil, err
	}
	db.wal = w
	if !opts.disableBackgroundCompaction {
		db.compactCh = make(chan struct{}, 1)
		db.stop = make(chan struct{})
		db.bgStarted = true
		db.wg.Add(1)
		go db.compactor()
		db.signalCompaction() // catch up on work a previous process left
	}
	return db, nil
}

func (db *DB) walPath() string { return filepath.Join(db.dir, "wal.log") }

// loadTables scans the directory for SSTables and a CURRENT manifest
// describing their levels.
func (db *DB) loadTables() error {
	manifest := filepath.Join(db.dir, "CURRENT")
	data, err := os.ReadFile(manifest)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: read manifest: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var num uint64
		var level int
		var maxSeq uint64
		if _, err := fmt.Sscanf(line, "%d %d %d", &num, &level, &maxSeq); err != nil {
			return fmt.Errorf("kvstore: manifest line %q: %w", line, err)
		}
		if level < 0 {
			return fmt.Errorf("kvstore: manifest line %q: negative level", line)
		}
		t, err := openSSTable(sstFileName(db.dir, num), num, level)
		if err != nil {
			return err
		}
		for len(db.levels) <= level {
			db.levels = append(db.levels, nil)
		}
		db.levels[level] = append(db.levels[level], t)
		if num >= db.nextNum.Load() {
			db.nextNum.Store(num + 1)
		}
		if maxSeq > db.seq {
			db.seq = maxSeq
		}
	}
	db.sortLevelsLocked()
	return nil
}

// sortLevelsLocked restores the per-level ordering invariants: L0 newest
// first (higher file number = newer), deeper levels by smallest key.
func (db *DB) sortLevelsLocked() {
	if len(db.levels) == 0 {
		return
	}
	sort.Slice(db.levels[0], func(i, j int) bool { return db.levels[0][i].num > db.levels[0][j].num })
	for lvl := 1; lvl < len(db.levels); lvl++ {
		tables := db.levels[lvl]
		sort.Slice(tables, func(i, j int) bool {
			return compareBytes(tables[i].smallest, tables[j].smallest) < 0
		})
	}
}

// removeOrphans deletes table files the manifest does not reference and
// stray temp files.
func (db *DB) removeOrphans() error {
	live := make(map[string]bool)
	for _, level := range db.levels {
		for _, t := range level {
			live[filepath.Base(sstFileName(db.dir, t.num))] = true
		}
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("kvstore: scan dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		orphan := (strings.HasSuffix(name, ".sst") && !live[name]) ||
			strings.HasSuffix(name, ".tmp")
		if !orphan {
			continue
		}
		if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
			return fmt.Errorf("kvstore: remove orphan %s: %w", name, err)
		}
	}
	return nil
}

func (db *DB) writeManifestLocked() error {
	var b strings.Builder
	for lvl, tables := range db.levels {
		for _, t := range tables {
			fmt.Fprintf(&b, "%d %d %d\n", t.num, lvl, db.seq)
		}
	}
	tmp := filepath.Join(db.dir, "CURRENT.tmp")
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("kvstore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, "CURRENT")); err != nil {
		return fmt.Errorf("kvstore: install manifest: %w", err)
	}
	return nil
}

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

// Write applies a batch atomically: the whole batch is one WAL record and is
// visible at a single sequence point.
func (db *DB) Write(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var payload []byte
	for _, op := range b.ops {
		db.seq++
		payload = appendEntry(payload, op.key, db.seq, op.kind, op.val)
	}
	if err := db.wal.append(payload, db.opts.SyncWrites); err != nil {
		return err
	}
	seq := db.seq - uint64(len(b.ops)) + 1
	for _, op := range b.ops {
		db.mem.add(op.key, seq, op.kind, op.val)
		seq++
	}
	if db.mem.size >= db.opts.memtableBytes {
		if err := db.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the current value of key.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	v, deleted, ok := db.findLocked(key)
	if !ok || deleted {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// findLocked returns the newest version of key: the memtable first, then
// level 0 newest table first, then the one candidate table per deeper level.
func (db *DB) findLocked(key []byte) (val []byte, deleted, ok bool) {
	if val, deleted, ok = db.mem.get(key); ok {
		return val, deleted, true
	}
	if len(db.levels) > 0 {
		for _, t := range db.levels[0] {
			if !t.overlaps(key, key) {
				continue
			}
			if val, deleted, ok = t.get(key); ok {
				return val, deleted, true
			}
		}
	}
	// Deeper levels are non-overlapping: binary search for the candidate.
	for lvl := 1; lvl < len(db.levels); lvl++ {
		tables := db.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return compareBytes(tables[i].largest, key) >= 0
		})
		if i < len(tables) && tables[i].overlaps(key, key) {
			if val, deleted, ok = tables[i].get(key); ok {
				return val, deleted, true
			}
		}
	}
	return nil, false, false
}

// NewIterator returns an iterator over all live keys as of the call: writes
// that land while it is being walked stay invisible to it.
func (db *DB) NewIterator() *Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Rank encodes recency: the memtable, then level 0 newest first, then
	// the deeper levels.
	sources := []*mergeSource{{it: db.mem.iterator()}}
	for _, level := range db.levels {
		for _, t := range level {
			sources = append(sources, &mergeSource{it: t.iterator(), rank: len(sources)})
		}
	}
	return newIterator(sources, db.seq)
}

// NewIteratorFrom returns an iterator positioned at the first live key >=
// start, as of the call. Durability layers that keep sequenced logs
// under ordered keys (the shard op log, replication catch-up) use it to tail
// from a cursor without scanning the keyspace below it.
func (db *DB) NewIteratorFrom(start []byte) *Iterator {
	it := db.NewIterator()
	it.Seek(start)
	return it
}

// Flush forces the memtable to disk as a level-0 SSTable.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

// flushLocked persists the memtable as a level-0 table. Ordering is
// crash-critical: the table is durable and referenced by the manifest
// BEFORE the WAL rotates. A crash between those steps replays WAL entries
// that also live in the new table — a harmless shadow — whereas the reverse
// order would lose the flush entirely.
func (db *DB) flushLocked() error {
	if db.mem.count == 0 {
		return nil
	}
	var entries []sstEntry
	it := db.mem.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik, v := it.Entry()
		entries = append(entries, sstEntry{key: ik, val: v})
	}
	num := db.nextNum.Add(1) - 1
	path := sstFileName(db.dir, num)
	if err := writeSSTable(path, entries); err != nil {
		return err
	}
	t, err := openSSTable(path, num, 0)
	if err != nil {
		return err
	}
	if len(db.levels) == 0 {
		db.levels = append(db.levels, nil)
	}
	db.levels[0] = append([]*sstable{t}, db.levels[0]...)
	db.mem = newMemtable()
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	// Rotate the WAL: its contents are now durable in the SSTable.
	if err := db.wal.close(); err != nil {
		return err
	}
	if err := os.Remove(db.walPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("kvstore: remove wal: %w", err)
	}
	w, err := openWAL(db.walPath())
	if err != nil {
		return err
	}
	db.wal = w
	db.met.Flushes.Inc()
	if db.bgStarted {
		if len(db.levels[0]) >= db.opts.l0Compact {
			db.signalCompaction()
		}
		return nil
	}
	if len(db.levels[0]) >= db.opts.l0Compact {
		return db.compactAllLocked()
	}
	return nil
}

// Len returns the number of live keys (full scan; intended for tests and
// small stores).
func (db *DB) Len() int {
	n := 0
	for it := db.NewIterator(); it.Valid(); it.Next() {
		n++
	}
	return n
}

// CompactionError reports the first background-compaction failure, if any.
// The store keeps serving reads and writes after one (the log and manifest
// stay consistent); the error is a health signal.
func (db *DB) CompactionError() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.compactErr
}

// Close flushes in-flight background work and closes the store.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	err := db.wal.close()
	db.mu.Unlock()
	if db.bgStarted {
		close(db.stop)
		db.wg.Wait()
	}
	return err
}

// Batch is an ordered set of writes applied atomically.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	key  []byte
	val  []byte
	kind entryKind
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put records an insert/overwrite in the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		key:  append([]byte(nil), key...),
		val:  append([]byte(nil), value...),
		kind: kindValue,
	})
}

// Delete records a deletion in the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), kind: kindDelete})
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }
