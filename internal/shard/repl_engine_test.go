package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
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
		if ra[i] != rb[i] {
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
// anchor check must reject it with a DivergenceError and halt that shard
// permanently, and the pre-batch view must serve on: its (seq, height, root,
// count) anchor unchanged, and every key the refused batch wrote reading
// back its pre-batch value with a proof that verifies. It runs on both
// paths a batch can take past the view: unread (the view is retracted, the
// batch edits it in place under the set's journal and rolls back) and
// pinned (a read holds the view across the batch, so the view stays
// published and the batch copies its nodes).
func TestReplicatedApplyDivergenceHalts(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		name := "unread"
		if pinned {
			name = "pinned"
		}
		t.Run(name, func(t *testing.T) { testDivergenceHalts(t, pinned) })
	}
}

func testDivergenceHalts(t *testing.T, pinned bool) {
	leader := newReplicating(t, 1, 8)
	follower := newReplicating(t, 1, 8)
	driveLeader(t, leader, 4)
	ship(t, leader, follower)

	// Roots pins nothing, and the pre-batch values come from the leader's
	// views, so on the unread path no reader ever pins the follower's view.
	roots, err := follower.Engine().Roots()
	if err != nil {
		t.Fatal(err)
	}
	before := roots[0]
	preBatch := make(map[string]*query.GetResult)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key%03d", i)
		if preBatch[k], err = leader.Engine().Get(k); err != nil {
			t.Fatal(err)
		}
	}

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

	if pinned {
		if _, err := follower.Engine().ViewOf(0); err != nil {
			t.Fatal(err)
		}
	}
	err = follower.Apply(0, tampered)
	if !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("tampered batch: err = %v, want ErrDivergence", err)
	}
	var div *repl.DivergenceError
	if !errors.As(err, &div) || div.Want.Seq != tampered.Seq {
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

	// The forked state was never published: the view serving is the
	// pre-batch one. (A view the refused batch retracted and never
	// succeeded would block its readers: bound the wait.)
	if roots, err = follower.Engine().Roots(); err != nil {
		t.Fatal(err)
	}
	if roots[0] != before {
		t.Errorf("view after the refusal %+v, want the pre-batch anchor %+v", roots[0], before)
	}
	answer := make(chan error, 1)
	go func() {
		for _, op := range tampered.Ops {
			if op.Type != "write" {
				continue
			}
			res, err := follower.Engine().Get(op.Key)
			if err == nil {
				err = query.VerifyGet(op.Key, res)
			}
			want := preBatch[op.Key]
			switch {
			case err != nil:
			case res.Anchor != before.Anchor():
				err = fmt.Errorf("view advanced past divergence: anchor %+v", res.Anchor)
			case res.Found != want.Found || res.Record.State != want.Record.State || !bytes.Equal(res.Record.Value, want.Record.Value):
				err = fmt.Errorf("%q reads back found=%v %+v, pre-batch found=%v %+v", op.Key, res.Found, res.Record, want.Found, want.Record)
			}
			if err != nil {
				answer <- err
				return
			}
		}
		answer <- nil
	}()
	select {
	case err := <-answer:
		if err != nil {
			t.Errorf("read of the pre-batch view: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read of the pre-batch view blocked: it was retracted and never succeeded")
	}
}

// TestReplicatedApplyRefusesForgedAnchor ships a genuine entry whose anchor
// has one field changed: the root, the record count or the chain height.
// Every field of the anchor is checked, so each row is refused with a
// divergence that names the shard and the seq. The refusal leaves the
// shard's cursor, the anchor of its published view and its replication log
// as they were, and it halts the shard: every later Apply, the genuine entry
// included, returns the same error.
func TestReplicatedApplyRefusesForgedAnchor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*query.Anchor)
	}{
		{"root byte", func(a *query.Anchor) { a.Root[7] ^= 0x01 }},
		{"count+1", func(a *query.Anchor) { a.Count++ }},
		{"height+5", func(a *query.Anchor) { a.Height += 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sh = 1
			leader := newReplicating(t, 2, 8)
			follower := newReplicating(t, 2, 8)
			driveLeader(t, leader, 4)
			ship(t, leader, follower)
			cursor, err := follower.Seq(sh)
			if err != nil {
				t.Fatal(err)
			}
			driveLeader(t, leader, 1)
			page, err := leader.ReplPage(sh, cursor, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Entries) != 1 {
				t.Fatalf("expected 1 fresh entry on shard %d, got %d", sh, len(page.Entries))
			}
			genuine := page.Entries[0]
			forged := genuine
			tc.forge(&forged.Anchor)

			rootsBefore, err := follower.Engine().Roots()
			if err != nil {
				t.Fatal(err)
			}
			logBefore, err := follower.ReplPage(sh, 0, 0)
			if err != nil {
				t.Fatal(err)
			}

			refused := follower.Apply(sh, forged)
			var div *repl.DivergenceError
			if !errors.Is(refused, repl.ErrDivergence) || !errors.As(refused, &div) {
				t.Fatalf("forged %s accepted or misclassified: %v", tc.name, refused)
			}
			if div.Shard != sh || div.Want != forged.Anchor {
				t.Errorf("divergence names shard %d, want %+v; forged shard %d, %+v", div.Shard, div.Want, sh, forged.Anchor)
			}
			if want := fmt.Sprintf("shard %d diverged at seq %d", sh, forged.Seq); !strings.Contains(refused.Error(), want) {
				t.Errorf("error %q does not say %q", refused, want)
			}

			if seq, err := follower.Seq(sh); err != nil || seq != cursor {
				t.Errorf("cursor after the refusal = %d (%v), want %d", seq, err, cursor)
			}
			rootsAfter, err := follower.Engine().Roots()
			if err != nil {
				t.Fatal(err)
			}
			if rootsAfter[sh] != rootsBefore[sh] {
				t.Errorf("view anchor after the refusal %+v, want %+v", rootsAfter[sh], rootsBefore[sh])
			}
			logAfter, err := follower.ReplPage(sh, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(logAfter, logBefore) {
				t.Errorf("replication log after the refusal %+v, want %+v", logAfter, logBefore)
			}

			for _, e := range []repl.Entry{genuine, forged} {
				if again := follower.Apply(sh, e); again == nil || again.Error() != refused.Error() {
					t.Errorf("apply after the halt: %v, want %v", again, refused)
				}
			}
		})
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
	if view.Anchor() != verified.Anchor() {
		t.Fatalf("recovered anchor %+v, want verified %+v", view.Anchor(), verified.Anchor())
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

	// A lying snapshot (anchor does not match its state: its count, or its
	// chain height) is refused and the shard keeps its current state.
	for _, lie := range []func(*repl.Snapshot){
		func(s *repl.Snapshot) { s.Count++ },
		func(s *repl.Snapshot) { s.Height++ },
	} {
		snap, err := leader.ReplSnapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		lie(snap)
		if _, err := follower.Reset(0, snap); !errors.Is(err, repl.ErrDivergence) {
			t.Fatalf("lying snapshot: err = %v, want ErrDivergence", err)
		}
		assertSameRoots(t, leader, follower)
	}
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
		return repl.Entry{Anchor: query.Anchor{Seq: seq}, Ops: []core.Op{{Type: "write", Key: "k", Value: make([]byte, 60)}}}
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
	if err := sf.Apply(0, repl.Entry{Anchor: query.Anchor{Seq: 1}}); !errors.Is(err, repl.ErrNotReplicating) {
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
		l.append(repl.Entry{Anchor: query.Anchor{Seq: seq}})
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
