package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/sim"
)

// restoreTestFeed mirrors newTestFeed for the replication bootstrap path.
func restoreTestFeed(epochOps int) func(int, *core.FeedSnapshot) (*core.Feed, error) {
	return func(_ int, snap *core.FeedSnapshot) (*core.Feed, error) {
		c := chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
		return core.RestoreFeed(c, policy.NewMemoryless(2), core.Options{EpochOps: epochOps}, snap)
	}
}

func newReplicating(t *testing.T, n, epochOps int) *ShardedFeed {
	t.Helper()
	sf, err := New(
		Options{Shards: n, Views: true, Repl: true, Restore: restoreTestFeed(epochOps)},
		func(int) (*core.Feed, error) { return newTestFeed(epochOps) },
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	return sf
}

// driveLeader applies mixed batches and returns the total batch count.
func driveLeader(t *testing.T, sf *ShardedFeed, batches int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		ops := make([]core.Op, 0, 8)
		for i := 0; i < 6; i++ {
			ops = append(ops, core.Op{Type: "write", Key: fmt.Sprintf("key%03d", (b*7+i*13)%64), Value: []byte(fmt.Sprintf("v%d-%d", b, i))})
		}
		ops = append(ops,
			core.Op{Type: "read", Key: fmt.Sprintf("key%03d", b%64)},
			core.Op{Type: "read", Key: "missing"},
		)
		if _, err := sf.Do(ops); err != nil {
			t.Fatal(err)
		}
	}
}

// ship replays every retained log entry from leader to follower, per shard,
// and returns the per-shard applied counts.
func ship(t *testing.T, leader, follower *ShardedFeed) {
	t.Helper()
	for sh := 0; sh < leader.Shards(); sh++ {
		cursor, err := follower.Seq(sh)
		if err != nil {
			t.Fatal(err)
		}
		for {
			page, err := leader.ReplPage(sh, cursor, 4)
			if err != nil {
				t.Fatal(err)
			}
			if page.SnapshotRequired {
				t.Fatalf("shard %d: unexpected snapshot bootstrap (cursor %d, floor %d)", sh, cursor, page.FloorSeq)
			}
			if len(page.Entries) == 0 {
				break
			}
			for _, e := range page.Entries {
				if err := follower.Apply(sh, e); err != nil {
					t.Fatalf("shard %d apply seq %d: %v", sh, e.Seq, err)
				}
				cursor = e.Seq
			}
		}
	}
}

// assertSameRoots compares two feeds' per-shard anchors via their engines.
func assertSameRoots(t *testing.T, a, b *ShardedFeed) {
	t.Helper()
	ra, err := a.Engine().Roots()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Engine().Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("shard counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Root != rb[i].Root || ra[i].Count != rb[i].Count || ra[i].Seq != rb[i].Seq {
			t.Errorf("shard %d anchors differ: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// TestReplicatedApplyMirrorsLeader ships a leader's log batch by batch into
// a follower engine and checks the follower converges to identical
// per-shard anchors (root, count, seq).
func TestReplicatedApplyMirrorsLeader(t *testing.T) {
	leader := newReplicating(t, 4, 8)
	follower := newReplicating(t, 4, 8)
	driveLeader(t, leader, 12)
	ship(t, leader, follower)
	assertSameRoots(t, leader, follower)

	// More writes, incremental ship from the follower's cursor.
	driveLeader(t, leader, 5)
	ship(t, leader, follower)
	assertSameRoots(t, leader, follower)
}

// TestReplicatedApplyDivergenceHalts flips one byte in a shipped batch: the
// anchor check must reject it with a DivergenceError, halt that shard
// permanently, and keep the previously published view serving.
func TestReplicatedApplyDivergenceHalts(t *testing.T) {
	leader := newReplicating(t, 1, 8)
	follower := newReplicating(t, 1, 8)
	driveLeader(t, leader, 4)
	ship(t, leader, follower)

	// Roots pins nothing: the refused batch must leave the view intact even
	// though no reader ever pinned it.
	roots, err := follower.Engine().Roots()
	if err != nil {
		t.Fatal(err)
	}
	before := roots[0]

	driveLeader(t, leader, 1)
	page, err := leader.ReplPage(0, before.Seq, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 {
		t.Fatalf("expected 1 fresh entry, got %d", len(page.Entries))
	}
	tampered := page.Entries[0]
	tampered.Ops = append([]core.Op(nil), tampered.Ops...)
	tampered.Ops[0].Value = append([]byte(nil), tampered.Ops[0].Value...)
	tampered.Ops[0].Value[0] ^= 0x01 // the flipped byte

	err = follower.Apply(0, tampered)
	if !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("tampered batch: err = %v, want ErrDivergence", err)
	}
	var div *repl.DivergenceError
	if !errors.As(err, &div) || div.Seq != tampered.Seq {
		t.Fatalf("divergence detail missing: %v", err)
	}

	// The shard is halted: even the genuine batch is refused now.
	if err := follower.Apply(0, page.Entries[0]); !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("apply after halt: err = %v, want ErrDivergence", err)
	}
	st, err := follower.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PerShard[0].Diverged == "" {
		t.Error("divergence not surfaced in shard stats")
	}

	// The forked state was never published: the view still serves the
	// last verified root, and its nodes were copied, not edited, so a read
	// of the key the refused batch wrote still verifies against it. (A view
	// the refused batch retracted would never be succeeded: bound the wait.)
	key := tampered.Ops[0].Key
	answer := make(chan error, 1)
	go func() {
		res, err := follower.Engine().Get(key)
		switch {
		case err != nil:
		case res.Seq != before.Seq || res.Root != before.Root:
			err = fmt.Errorf("view advanced past divergence: seq %d root %s", res.Seq, res.Root)
		default:
			err = query.VerifyGet(key, res)
		}
		answer <- err
	}()
	select {
	case err := <-answer:
		if err != nil {
			t.Errorf("read of the last verified view: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read of the last verified view blocked: it was retracted and never succeeded")
	}
}

// TestDivergedShardNeverPersistsFork pins the durability side of the
// divergence halt: after a refused batch, every path that could make the
// forked in-memory state durable or export it — client writes, explicit
// snapshots, bootstrap snapshots, the graceful-shutdown flush — is refused,
// and a restart recovers exactly the last verified state, which can then
// resume replicating.
func TestDivergedShardNeverPersistsFork(t *testing.T) {
	leader := newReplicating(t, 1, 8)
	driveLeader(t, leader, 5)
	page, err := leader.ReplPage(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	open := func() *ShardedFeed {
		sf, err := New(
			Options{
				Shards: 1, Views: true, Repl: true,
				Restore: restoreTestFeed(8),
				Persist: &PersistOptions{Dir: dir, Restore: restoreTestFeed(8)},
			},
			func(int) (*core.Feed, error) { return newTestFeed(8) },
		)
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	follower := open()
	for _, e := range page.Entries[:4] {
		if err := follower.Apply(0, e); err != nil {
			t.Fatal(err)
		}
	}
	verified, err := follower.Engine().ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}

	tampered := page.Entries[4]
	tampered.Ops = append([]core.Op(nil), tampered.Ops...)
	tampered.Ops[0].Value = append([]byte(nil), tampered.Ops[0].Value...)
	tampered.Ops[0].Value[0] ^= 0x01
	if err := follower.Apply(0, tampered); !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("tampered apply: %v", err)
	}

	// Every escape hatch for the forked state is closed.
	if _, err := follower.Do([]core.Op{{Type: "write", Key: "x", Value: []byte("y")}}); !errors.Is(err, repl.ErrDivergence) {
		t.Errorf("write on diverged shard: err = %v, want ErrDivergence", err)
	}
	if _, err := follower.Snapshot(); !errors.Is(err, repl.ErrDivergence) {
		t.Errorf("explicit snapshot on diverged shard: err = %v, want ErrDivergence", err)
	}
	if _, err := follower.ReplSnapshot(0); !errors.Is(err, repl.ErrDivergence) {
		t.Errorf("bootstrap snapshot of diverged shard: err = %v, want ErrDivergence", err)
	}

	// Graceful shutdown must not flush the fork; recovery restores the
	// verified prefix and replication resumes with the genuine batch.
	follower.Close()
	recovered := open()
	t.Cleanup(recovered.Close)
	seq, err := recovered.Seq(0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("recovered cursor %d, want the verified prefix 4", seq)
	}
	view, err := recovered.Engine().ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if view.Root() != verified.Root() {
		t.Fatalf("recovered root %s, want verified %s", view.Root(), verified.Root())
	}
	if err := recovered.Apply(0, page.Entries[4]); err != nil {
		t.Fatalf("genuine batch after recovery: %v", err)
	}
	assertSameRoots(t, leader, recovered)
}

// TestReplicatedSeqGap rejects out-of-order batches without corrupting the
// shard.
func TestReplicatedSeqGap(t *testing.T) {
	leader := newReplicating(t, 1, 8)
	follower := newReplicating(t, 1, 8)
	driveLeader(t, leader, 3)
	page, err := leader.ReplPage(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Apply(0, page.Entries[1]); !errors.Is(err, repl.ErrSeqGap) {
		t.Fatalf("gap apply: err = %v, want ErrSeqGap", err)
	}
	ship(t, leader, follower) // in-order shipping still works after the gap
	assertSameRoots(t, leader, follower)
}

// TestReplResetBootstrap installs a verified leader snapshot wholesale and
// tails from there; a snapshot whose state does not hash to its advertised
// anchor is refused.
func TestReplResetBootstrap(t *testing.T) {
	leader := newReplicating(t, 2, 8)
	driveLeader(t, leader, 10)

	follower := newReplicating(t, 2, 8)
	for sh := 0; sh < 2; sh++ {
		snap, err := leader.ReplSnapshot(sh)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := follower.Reset(sh, snap)
		if err != nil {
			t.Fatal(err)
		}
		if seq != snap.Seq {
			t.Fatalf("reset cursor %d, want %d", seq, snap.Seq)
		}
	}
	assertSameRoots(t, leader, follower)

	// Continue tailing on top of the bootstrap.
	driveLeader(t, leader, 4)
	ship(t, leader, follower)
	assertSameRoots(t, leader, follower)

	// A lying snapshot (anchor does not match its state) is refused and
	// the shard keeps its current state.
	snap, err := leader.ReplSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	snap.Count++ // lie
	if _, err := follower.Reset(0, snap); !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("lying snapshot: err = %v, want ErrDivergence", err)
	}
	assertSameRoots(t, leader, follower)
}

// TestReplRetainFloor forces the retained window to slide: a cursor below
// the floor must be told to bootstrap.
func TestReplRetainFloor(t *testing.T) {
	sf, err := New(
		Options{Shards: 1, Views: true, Repl: true, ReplRetain: 4, Restore: restoreTestFeed(8)},
		func(int) (*core.Feed, error) { return newTestFeed(8) },
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sf.Close)
	driveLeader(t, sf, 10)
	page, err := sf.ReplPage(0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !page.SnapshotRequired {
		t.Fatalf("cursor 0 below floor %d should require a snapshot: %+v", page.FloorSeq, page)
	}
	if page.FloorSeq != 6 || page.LeaderSeq != 10 {
		t.Errorf("floor/leader = %d/%d, want 6/10", page.FloorSeq, page.LeaderSeq)
	}
	// From the floor itself, the full window pages out.
	page, err = sf.ReplPage(0, page.FloorSeq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Seq != 7 {
		t.Errorf("window page = %+v", page)
	}
}

// TestReplLogByteBound: the retained window is bounded by payload bytes as
// well as entry count — a few huge batches must not pin unbounded memory.
func TestReplLogByteBound(t *testing.T) {
	l := newReplLog(100)
	entry := func(seq uint64) repl.Entry {
		return repl.Entry{Seq: seq, Ops: []core.Op{{Type: "write", Key: "k", Value: make([]byte, 60)}}}
	}
	first := entry(1)
	perEntry := first.WireBytes()
	l.maxBytes = 2*perEntry - 1 // room for one entry, never two
	for i := 1; i <= 10; i++ {
		l.append(entry(uint64(i)))
	}
	page := l.page(0, 100)
	if page.LeaderSeq != 10 || !page.SnapshotRequired || page.FloorSeq != 9 {
		t.Fatalf("byte-bounded window = %+v, want floor 9 (1 retained entry)", page)
	}
	if got := l.page(9, 100); len(got.Entries) != 1 || got.Entries[0].Seq != 10 {
		t.Fatalf("retained page = %+v", got)
	}
	if l.bytes != perEntry {
		t.Fatalf("byte accounting drifted: %d, want %d", l.bytes, perEntry)
	}
}

// TestNonReplicatingFeed gates the entry points behind Options.Repl.
func TestNonReplicatingFeed(t *testing.T) {
	sf := newSharded(t, 2, 8, false)
	if _, err := sf.Seq(0); !errors.Is(err, repl.ErrNotReplicating) {
		t.Errorf("Seq on non-replicating feed: %v", err)
	}
	if _, err := sf.ReplPage(0, 0, 1); !errors.Is(err, repl.ErrNotReplicating) {
		t.Errorf("ReplPage on non-replicating feed: %v", err)
	}
	if err := sf.Apply(0, repl.Entry{Seq: 1}); !errors.Is(err, repl.ErrNotReplicating) {
		t.Errorf("Apply on non-replicating feed: %v", err)
	}
}

// TestReplLogBoundaryContiguity sweeps every cursor across the retained
// window: at or above the floor the served page must start exactly one past
// the cursor (no gap, no overlap), strictly below it the log must answer
// with a clean SnapshotRequired signal — never a page that skips entries.
func TestReplLogBoundaryContiguity(t *testing.T) {
	l := newReplLog(4)
	for seq := uint64(1); seq <= 12; seq++ {
		l.append(repl.Entry{Seq: seq})
	}
	floor := l.page(0, 0).FloorSeq
	if floor != 8 {
		t.Fatalf("floor = %d, want 8 (12 appended, 4 retained)", floor)
	}
	for from := uint64(0); from <= 13; from++ {
		page := l.page(from, 0)
		switch {
		case from < floor:
			if !page.SnapshotRequired || len(page.Entries) != 0 {
				t.Fatalf("cursor %d below floor %d: %+v", from, floor, page)
			}
		case from >= 12:
			if page.SnapshotRequired || len(page.Entries) != 0 {
				t.Fatalf("cursor %d at/past head: %+v", from, page)
			}
		default:
			if page.SnapshotRequired || len(page.Entries) == 0 || page.Entries[0].Seq != from+1 {
				t.Fatalf("cursor %d: page does not resume at %d: %+v", from, from+1, page)
			}
			for i, e := range page.Entries {
				if e.Seq != from+1+uint64(i) {
					t.Fatalf("cursor %d: entry %d has seq %d, want %d", from, i, e.Seq, from+1+uint64(i))
				}
			}
		}
	}
}

// TestReplRetainSnapshotPruneBoundary pins the interaction between the
// bounded in-memory replication log and snapshot-triggered log pruning: a
// leader snapshots (pruning its durable log), restarts, and rebuilds its
// repl log from the snapshot seq upward. A follower whose cursor sits
// exactly at the post-restart retention floor must resume with contiguous
// entries; a follower one below the floor must get a clean
// snapshot-bootstrap signal — and that bootstrap must then converge to the
// leader's anchors.
func TestReplRetainSnapshotPruneBoundary(t *testing.T) {
	dir := t.TempDir()
	mkLeader := func() *ShardedFeed {
		opts := persistOptions(dir, 1, 6, false)
		opts.Views = true
		opts.Repl = true
		opts.ReplRetain = 64
		sf, err := New(opts, func(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) })
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	leader := mkLeader()
	driveLeader(t, leader, 10) // auto-snapshot at batch 6 prunes log seqs <= 6

	// Two followers tail the pre-restart leader (floor 0, everything in
	// memory): one stops exactly at the upcoming floor, one a batch short.
	atFloor, belowFloor := newReplicating(t, 1, persistEpochOps), newReplicating(t, 1, persistEpochOps)
	catchUpTo := func(f *ShardedFeed, upto uint64) {
		t.Helper()
		page, err := leader.ReplPage(0, 0, int(upto))
		if err != nil {
			t.Fatal(err)
		}
		if page.SnapshotRequired || uint64(len(page.Entries)) < upto {
			t.Fatalf("pre-restart leader cannot serve %d entries: %+v", upto, page)
		}
		for _, e := range page.Entries[:upto] {
			if err := f.Apply(0, e); err != nil {
				t.Fatalf("apply seq %d: %v", e.Seq, err)
			}
		}
	}
	catchUpTo(atFloor, 6)
	catchUpTo(belowFloor, 5)

	// Crash the leader (a clean Close would take a final snapshot and slide
	// the floor to the head): recovery restores the durable snapshot (seq 6,
	// log below it pruned), restarts the repl log there, and re-anchors the
	// replayed tail (7..10) above it.
	leader.Kill()
	leader = mkLeader()
	t.Cleanup(func() { leader.Close() })

	probe, err := leader.ReplPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if probe.FloorSeq != 6 || probe.LeaderSeq != 10 || !probe.SnapshotRequired {
		t.Fatalf("post-restart window = %+v, want floor 6, head 10", probe)
	}

	// Cursor exactly at the floor: contiguous resume, no bootstrap.
	page, err := leader.ReplPage(0, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.SnapshotRequired {
		t.Fatalf("cursor at floor forced a bootstrap: %+v", page)
	}
	if len(page.Entries) != 4 || page.Entries[0].Seq != 7 {
		t.Fatalf("cursor at floor resumed at %+v, want seqs 7..10", page)
	}
	for _, e := range page.Entries {
		if err := atFloor.Apply(0, e); err != nil {
			t.Fatalf("at-floor follower apply seq %d: %v", e.Seq, err)
		}
	}
	assertSameRoots(t, leader, atFloor)

	// Cursor one below the floor: clean SnapshotRequired (never a page with
	// a seq gap), and the advertised bootstrap path works.
	page, err = leader.ReplPage(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !page.SnapshotRequired || len(page.Entries) != 0 {
		t.Fatalf("cursor below floor = %+v, want SnapshotRequired", page)
	}
	snap, err := leader.ReplSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	cursor, err := belowFloor.Reset(0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 10 {
		t.Fatalf("bootstrap cursor = %d, want leader head 10", cursor)
	}
	ship(t, leader, belowFloor)
	assertSameRoots(t, leader, belowFloor)
}
