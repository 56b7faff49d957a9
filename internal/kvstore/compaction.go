package kvstore

import (
	"container/heap"
	"os"
	"sort"
)

// Compaction: folding tables down the level tree.
//
// Level 0 holds raw flush outputs, which overlap freely; every deeper level
// is a sorted run of non-overlapping tables. Two triggers exist:
//
//   - L0 reaches l0Compact tables: all of L0 plus the overlapping
//     slice of L1 merge into L1.
//   - A deeper level exceeds its byte budget (levelBaseBytes * 8^(level-1)):
//     its oldest table plus the overlapping slice of the next level merge
//     one level down.
//
// With background compaction enabled (the default) a single worker goroutine
// does this off the write path: it picks inputs under the DB lock, merges and
// writes the replacement tables with no lock held — the inputs are immutable,
// so reads and writes proceed untouched — and re-acquires the lock only for
// the atomic manifest swap. Writers therefore never stall on compaction; the
// only write-path pause is the memtable flush itself.
//
// Version retention: the merge keeps the newest version of each key — the
// only one a read can reach. A tombstone is dropped only when the output
// level has no data beneath it, where nothing deeper could resurface the
// deleted key.

// compactionJob is an immutable description of one compaction, picked under
// db.mu and executed without it.
type compactionJob struct {
	dstLevel int
	inputs   []*sstable // source tables first (L0 newest-first), then dst overlaps
	bottom   bool       // no table below dstLevel overlaps the job's key range
}

// hook runs the crash-point test hook, if any. The hook lives on Options and
// is never mutated after Open, so reading it without a lock is safe.
func (db *DB) hook(stage string) {
	if db.opts.compactionHook != nil {
		db.opts.compactionHook(stage)
	}
}

// signalCompaction nudges the background worker; a signal is already pending
// when the channel is full, so this never blocks.
func (db *DB) signalCompaction() {
	if db.compactCh == nil {
		return
	}
	select {
	case db.compactCh <- struct{}{}:
	default:
	}
}

// compactor is the background worker: wake on signal, drain all pending work,
// sleep. compactMu serializes it against explicit Compact calls.
func (db *DB) compactor() {
	defer db.wg.Done()
	for {
		select {
		case <-db.stop:
			return
		case <-db.compactCh:
		}
		for {
			select {
			case <-db.stop:
				return
			default:
			}
			db.compactMu.Lock()
			db.mu.Lock()
			job := db.pickCompactionLocked()
			db.mu.Unlock()
			if job == nil {
				db.compactMu.Unlock()
				break
			}
			err := db.runCompaction(job)
			db.compactMu.Unlock()
			if err != nil {
				db.mu.Lock()
				if db.compactErr == nil {
					db.compactErr = err
				}
				db.mu.Unlock()
				break
			}
		}
	}
}

func keyRange(tables []*sstable) (lo, hi []byte) {
	for _, t := range tables {
		if t.count == 0 {
			continue
		}
		if lo == nil || compareBytes(t.smallest, lo) < 0 {
			lo = t.smallest
		}
		if hi == nil || compareBytes(t.largest, hi) > 0 {
			hi = t.largest
		}
	}
	return lo, hi
}

func overlappingTables(tables []*sstable, lo, hi []byte) []*sstable {
	var out []*sstable
	for _, t := range tables {
		if t.overlaps(lo, hi) {
			out = append(out, t)
		}
	}
	return out
}

func (db *DB) levelBytesLocked(lvl int) int {
	n := 0
	for _, t := range db.levels[lvl] {
		n += t.bytes
	}
	return n
}

// maxLevelBytes is the byte budget of a level: levelBaseBytes for L1, 8x
// more per level below.
func (db *DB) maxLevelBytes(lvl int) int {
	budget := db.opts.levelBaseBytes
	for i := 1; i < lvl; i++ {
		budget *= 8
	}
	return budget
}

// noDataBelowLocked reports whether no table deeper than dstLevel overlaps
// [lo, hi] — the condition under which tombstones in the compaction output
// may be dropped.
func (db *DB) noDataBelowLocked(dstLevel int, lo, hi []byte) bool {
	for lvl := dstLevel + 1; lvl < len(db.levels); lvl++ {
		for _, t := range db.levels[lvl] {
			if t.overlaps(lo, hi) {
				return false
			}
		}
	}
	return true
}

// pickCompactionLocked chooses the most urgent compaction, or nil when the
// tree is in shape.
func (db *DB) pickCompactionLocked() *compactionJob {
	if db.closed || len(db.levels) == 0 {
		return nil
	}
	if len(db.levels[0]) >= db.opts.l0Compact {
		inputs := append([]*sstable(nil), db.levels[0]...)
		lo, hi := keyRange(inputs)
		if len(db.levels) > 1 {
			inputs = append(inputs, overlappingTables(db.levels[1], lo, hi)...)
		}
		lo, hi = keyRange(inputs)
		return &compactionJob{
			dstLevel: 1,
			inputs:   inputs,
			bottom:   db.noDataBelowLocked(1, lo, hi),
		}
	}
	for lvl := 1; lvl < len(db.levels); lvl++ {
		if len(db.levels[lvl]) == 0 || db.levelBytesLocked(lvl) <= db.maxLevelBytes(lvl) {
			continue
		}
		// Rotate the oldest table down; age order keeps the level from
		// repeatedly re-compacting its hottest range.
		pick := db.levels[lvl][0]
		for _, t := range db.levels[lvl][1:] {
			if t.num < pick.num {
				pick = t
			}
		}
		inputs := []*sstable{pick}
		if len(db.levels) > lvl+1 {
			inputs = append(inputs, overlappingTables(db.levels[lvl+1], pick.smallest, pick.largest)...)
		}
		lo, hi := keyRange(inputs)
		return &compactionJob{
			dstLevel: lvl + 1,
			inputs:   inputs,
			bottom:   db.noDataBelowLocked(lvl+1, lo, hi),
		}
	}
	return nil
}

// runCompaction executes a picked job: merge and write outputs with no lock
// held, swap the manifest atomically under the lock, then delete the inputs.
// The caller holds compactMu.
func (db *DB) runCompaction(job *compactionJob) error {
	db.hook("picked")
	outs, outBytes, err := db.buildOutputs(job.inputs, job.dstLevel, job.bottom)
	if err != nil {
		return err
	}
	db.hook("built")
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		for _, t := range outs {
			os.Remove(sstFileName(db.dir, t.num))
		}
		return nil
	}
	db.swapTablesLocked(job.inputs, outs, job.dstLevel)
	err = db.writeManifestLocked()
	db.met.Compactions.Inc()
	db.met.CompactionBytes.Add(float64(outBytes))
	db.mu.Unlock()
	if err != nil {
		return err
	}
	db.hook("swapped")
	for _, t := range job.inputs {
		os.Remove(sstFileName(db.dir, t.num))
	}
	return nil
}

// swapTablesLocked removes the input tables from every level and installs
// the outputs at dstLevel, preserving the level's key order.
func (db *DB) swapTablesLocked(inputs, outs []*sstable, dstLevel int) {
	drop := make(map[uint64]bool, len(inputs))
	for _, t := range inputs {
		drop[t.num] = true
	}
	for lvl := range db.levels {
		kept := db.levels[lvl][:0]
		for _, t := range db.levels[lvl] {
			if !drop[t.num] {
				kept = append(kept, t)
			}
		}
		db.levels[lvl] = kept
	}
	for len(db.levels) <= dstLevel {
		db.levels = append(db.levels, nil)
	}
	dst := append(db.levels[dstLevel], outs...)
	sort.Slice(dst, func(i, j int) bool { return compareBytes(dst[i].smallest, dst[j].smallest) < 0 })
	db.levels[dstLevel] = dst
}

// buildOutputs merges the inputs into new tables at dstLevel, applying the
// retention policy and splitting outputs at tableTargetBytes — only ever
// between distinct user keys, so deeper levels stay non-overlapping. It
// touches no DB state except the file-number allocator and may run without
// db.mu: every input is immutable.
func (db *DB) buildOutputs(inputs []*sstable, dstLevel int, bottom bool) ([]*sstable, int, error) {
	var h mergeHeap
	for rank, t := range inputs {
		src := &mergeSource{it: t.iterator(), rank: rank}
		src.it.SeekToFirst()
		if src.it.Valid() {
			h = append(h, src)
		}
	}
	heap.Init(&h)

	var outs []*sstable
	var cur []sstEntry
	curBytes, outBytes := 0, 0
	fail := func(err error) ([]*sstable, int, error) {
		for _, t := range outs {
			os.Remove(sstFileName(db.dir, t.num))
		}
		return nil, 0, err
	}
	flushOut := func() error {
		if len(cur) == 0 {
			return nil
		}
		num := db.nextNum.Add(1) - 1
		path := sstFileName(db.dir, num)
		if err := writeSSTable(path, cur); err != nil {
			return err
		}
		t, err := openSSTable(path, num, dstLevel)
		if err != nil {
			return err
		}
		outs = append(outs, t)
		outBytes += t.bytes
		cur = nil
		curBytes = 0
		return nil
	}

	var curUser []byte
	haveUser := false
	for len(h) > 0 {
		top := h[0]
		ik, v := top.it.Entry()
		top.it.Next()
		if top.it.Valid() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		// The merge yields a key's versions newest first. Everything after
		// the first is shadowed — or is the same (user, seq) entry again,
		// which two tables can hold when a crash between flush and WAL
		// rotation replayed already-flushed entries.
		if haveUser && compareBytes(curUser, ik.user) == 0 {
			continue
		}
		if curBytes >= db.opts.tableTargetBytes {
			if err := flushOut(); err != nil {
				return fail(err)
			}
		}
		curUser = ik.user
		haveUser = true
		if ik.kind == kindDelete && bottom {
			continue // nothing deeper for the tombstone to hide
		}
		cur = append(cur, sstEntry{key: ik, val: v})
		curBytes += len(ik.user) + len(v) + 16
	}
	if err := flushOut(); err != nil {
		return fail(err)
	}
	return outs, outBytes, nil
}

// Compact synchronously merges every level into a single sorted run at
// level 1, dropping shadowed versions and tombstones. Checkpoint uses it to bound recovery and scan cost; tests use it
// for determinism.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.compactAllLocked()
}

// compactAllLocked is the full-merge body; the caller holds db.mu (and
// compactMu when a background worker exists).
func (db *DB) compactAllLocked() error {
	var inputs []*sstable
	deep := 0
	for lvl, level := range db.levels {
		inputs = append(inputs, level...)
		if lvl > 0 {
			deep += len(level)
		}
	}
	if len(db.levels) > 0 && len(db.levels[0]) == 0 && deep <= 1 {
		return nil // already a single sorted run
	}
	if len(inputs) == 0 {
		return nil
	}
	db.hook("picked")
	outs, outBytes, err := db.buildOutputs(inputs, 1, true)
	if err != nil {
		return err
	}
	db.hook("built")
	db.levels = [][]*sstable{nil, outs}
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	db.met.Compactions.Inc()
	db.met.CompactionBytes.Add(float64(outBytes))
	db.hook("swapped")
	for _, t := range inputs {
		os.Remove(sstFileName(db.dir, t.num))
	}
	return nil
}
