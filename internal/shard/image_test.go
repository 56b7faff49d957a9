package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"grub/internal/core"
	"grub/internal/kvstore"
	"grub/internal/repl"
	"grub/internal/wire"
)

// storedImage reads and decodes the image a shard's store holds.
func storedImage(t *testing.T, dir string, shard int) *repl.Snapshot {
	t.Helper()
	db, err := kvstore.Open(shardDir(dir, shard), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	raw, err := db.Get([]byte(snapKey))
	if err != nil {
		t.Fatal(err)
	}
	kind, _, payload, err := kvstore.DecodeTypedRecord(raw)
	if err != nil || kind != kvstore.RecordImage {
		t.Fatalf("snapshot record: kind %d, err %v; want an image", kind, err)
	}
	img, err := repl.DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// putSnapshotRecord overwrites a shard's snapshot record with a well-framed
// record of the given kind, seq and payload.
func putSnapshotRecord(t *testing.T, dir string, shard int, kind kvstore.RecordKind, seq uint64, payload []byte) {
	t.Helper()
	db, err := kvstore.Open(shardDir(dir, shard), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte(snapKey), append(kvstore.AppendRecordHeader(nil, kind, seq), payload...)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistStoresTheServedImage: the durable snapshot is the image the
// snapshot route serves, byte for byte apart from the store's own snapshot
// count, and a reopen continues from it.
func TestPersistStoresTheServedImage(t *testing.T) {
	dir := t.TempDir()
	opts := viewOptions(dir, 1)
	opts.Repl = true
	sf, err := New(opts, buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sf, persistBatches(9, 8, 5))
	served, err := sf.ReplSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sf.Kill()

	stored := storedImage(t, dir, 0)
	if stored.Snapshots != ps.Snapshots {
		t.Errorf("stored image counts %d snapshots, the store reports %d", stored.Snapshots, ps.Snapshots)
	}
	stored.Snapshots = 0
	if a, b := repl.AppendSnapshot(nil, served), repl.AppendSnapshot(nil, stored); !bytes.Equal(a, b) {
		t.Fatalf("stored image (%d bytes) differs from the served one (%d bytes)", len(b), len(a))
	}

	reopened, err := New(opts, buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := roots(t, reopened)[0]
	if got.Seq != served.Seq || got.Root != served.Root || got.Count != served.Count || got.Height != served.Height {
		t.Fatalf("reopened at %+v, want the image's anchor %+v", got, served)
	}
}

// TestRecoverRefusesTamperedImage alters one record value inside a stored
// image, keeping its framing valid: the restored state no longer hashes to
// the image's anchor, and New fails with a divergence naming the shard and
// the image's seq rather than serve a root nobody signed.
func TestRecoverRefusesTamperedImage(t *testing.T) {
	dir := t.TempDir()
	sf, err := New(viewOptions(dir, 2), buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sf, persistBatches(10, 8, 3))
	sf.Close() // final snapshot on every shard

	// The image's feed state with one record value altered: restore it,
	// alter the record and snapshot the feed again under the same frame.
	img := storedImage(t, dir, 1)
	feed, err := restoreTestFeed(persistEpochOps)(1, img.Feed)
	if err != nil {
		t.Fatal(err)
	}
	recs := feed.DO.Set().Records()
	if len(recs) == 0 || len(recs[0].Value) == 0 {
		t.Fatalf("shard 1 image holds no record value to alter: %d records", len(recs))
	}
	rec := recs[0]
	rec.Value = bytes.Clone(rec.Value)
	rec.Value[0] ^= 0x01
	feed.DO.Set().Put(rec)
	if img.Feed, err = feed.Snapshot(); err != nil {
		t.Fatal(err)
	}
	putSnapshotRecord(t, dir, 1, kvstore.RecordImage, img.Seq, repl.AppendSnapshot(nil, img))

	_, err = New(viewOptions(dir, 2), buildTestFeed)
	if !errors.Is(err, repl.ErrDivergence) {
		t.Fatalf("New over a tampered image = %v, want ErrDivergence", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "shard 1: ") || !strings.Contains(msg, fmt.Sprintf("shard 1 diverged at seq %d", img.Seq)) {
		t.Errorf("New = %q, want it to name shard 1 and seq %d", msg, img.Seq)
	}
}

// TestRecoverRefusesUnanchoredSnapshot: a store whose snapshot record has a
// kind earlier builds wrote — 2, a feed snapshot with counters but no
// anchor, or 4, a JSON image — fails New with an error naming the record
// and the kind, rather than restore state it cannot read as an image.
func TestRecoverRefusesUnanchoredSnapshot(t *testing.T) {
	dir := t.TempDir()
	sf := newPersistent(t, dir, 1, 0, false)
	drive(t, sf, persistBatches(4, 8, 9))
	sf.Close()
	img := storedImage(t, dir, 0)
	feed := map[string]any{
		"chain":   map[string]any{"now": 0, "height": img.Height, "totalGas": 0, "txCount": 0},
		"records": []map[string]any{{"key": "k", "state": 0, "value": "dg=="}},
	}
	for kind, legacy := range map[kvstore.RecordKind]map[string]any{
		2: {"feed": feed, "ops": img.Ops, "batches": img.Seq, "baseGas": img.BaseGas, "snapshots": 1},
		4: {"shard": 0, "seq": img.Seq, "root": img.Root, "count": img.Count, "height": img.Height,
			"feed": feed, "ops": img.Ops, "baseGas": img.BaseGas, "snapshots": 1},
	} {
		payload, err := json.Marshal(legacy)
		if err != nil {
			t.Fatal(err)
		}
		putSnapshotRecord(t, dir, 0, kind, img.Seq, payload)
		_, err = New(persistOptions(dir, 1, 0, false), buildTestFeed)
		if err == nil {
			t.Fatalf("New restored a kind-%d snapshot record", kind)
		}
		if msg, want := err.Error(), fmt.Sprintf("kind %d", kind); !strings.Contains(msg, want) || !strings.Contains(msg, snapKey) {
			t.Errorf("New = %q, want an error naming record %q and %s", msg, snapKey, want)
		}
	}
}

// TestRecoverAfterReset: a persistent follower ahead of the leader (its own
// log runs past the leader's image) resets to the leader's image; the image
// becomes its durable snapshot with no log left, so a crash right after
// recovers exactly the leader's anchor and tailing continues from there.
func TestRecoverAfterReset(t *testing.T) {
	leader := newReplicating(t, 1, persistEpochOps)
	driveLeader(t, leader, 6)
	img, err := leader.ReplSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := viewOptions(dir, 1)
	opts.Repl = true
	follower, err := New(opts, buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, follower, persistBatches(9, 8, 4)) // a local history past seq 6
	if _, err := follower.Reset(0, img); err != nil {
		t.Fatal(err)
	}
	st, err := follower.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Persist; p == nil || p.LoggedBatches != 0 || p.LastSeq != img.Seq || p.Snapshots != 1 {
		t.Fatalf("after Reset the store reports %+v, want the image at seq %d and no log", p, img.Seq)
	}
	follower.Kill()

	recovered, err := New(opts, buildTestFeed)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	assertSameRoots(t, leader, recovered)
	driveLeader(t, leader, 3)
	ship(t, leader, recovered)
	assertSameRoots(t, leader, recovered)
}

// imageFuzzFeed is the shard a fuzzed image is installed into: one
// replicating, in-memory shard with a few batches applied.
func imageFuzzFeed(t testing.TB) *ShardedFeed {
	sf, err := New(
		Options{Shards: 1, Views: true, Repl: true, Restore: restoreTestFeed(persistEpochOps)},
		func(int) (*core.Feed, error) { return newTestFeed(persistEpochOps) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range persistBatches(3, 8, 2) {
		if _, err := sf.Do(b); err != nil {
			t.Fatal(err)
		}
	}
	return sf
}

// FuzzImageInstall feeds arbitrary bytes to the bootstrap path a follower
// takes with a leader's answer: decode it as an image, then Reset a shard to
// it. A leader is untrusted, so every input must be refused, leaving the
// shard's anchor as it was, or install to exactly the seq, root, count and
// height it claims; none may panic.
func FuzzImageInstall(f *testing.F) {
	leader := imageFuzzFeed(f)
	defer leader.Close()
	for _, b := range persistBatches(5, 8, 6) {
		if _, err := leader.Do(b); err != nil {
			f.Fatal(err)
		}
	}
	img, err := leader.ReplSnapshot(0)
	if err != nil {
		f.Fatal(err)
	}
	genuine := repl.AppendSnapshot(nil, img)
	f.Add(genuine)
	lie := *img
	lie.Count++
	f.Add(repl.AppendSnapshot(nil, &lie))

	// Offsets into the genuine image: the feed state starts with the
	// chain's, whose Gas ledger count follows four integers; the record
	// count and the first record's state byte follow the chain state.
	restored, err := restoreTestFeed(persistEpochOps)(0, img.Feed)
	if err != nil {
		f.Fatal(err)
	}
	cs, err := restored.Chain.AppendState(nil)
	if err != nil || !bytes.HasPrefix(img.Feed.Enc, cs) {
		f.Fatalf("the restored chain's state is not the image's (err %v)", err)
	}
	feedAt := len(genuine) - len(img.Feed.Enc)
	r := wire.Borrow(cs)
	r.Uint()
	r.Uint()
	r.Uint()
	r.Int()
	ledgerAt, recordsAt := feedAt+len(cs)-r.Len(), feedAt+len(cs)
	stateAt := recordsAt + len(wire.AppendInt(nil, img.Count))
	if genuine[ledgerAt] >= 0x80 || genuine[stateAt] != 0 {
		f.Fatalf("ledger count %#x, first state byte %d: the offsets are off", genuine[ledgerAt], genuine[stateAt])
	}
	f.Add(genuine[:len(genuine)-len(img.Feed.Enc)/2]) // cut halfway through the feed state
	badState := bytes.Clone(genuine)
	badState[stateAt] = 7
	f.Add(badState)
	bigMap := wire.AppendInt(bytes.Clone(genuine[:ledgerAt]), len(genuine)) // more ledger entries than bytes
	f.Add(append(bigMap, genuine[ledgerAt+1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := repl.DecodeSnapshot(data)
		if err != nil {
			return
		}
		sf := imageFuzzFeed(t)
		defer sf.Close()
		before := roots(t, sf)
		if _, err := sf.Reset(0, img); err != nil {
			if after := roots(t, sf); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused image (%v) moved the shard from %+v to %+v", err, before, after)
			}
			return
		}
		got := roots(t, sf)[0]
		if got.Seq != img.Seq || got.Root != img.Root || got.Count != img.Count || got.Height != img.Height {
			t.Fatalf("installed at %+v, the image claims seq %d root %s count %d height %d",
				got, img.Seq, img.Root, img.Count, img.Height)
		}
	})
}
