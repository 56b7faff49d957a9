package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"grub/internal/ads"
	"grub/internal/merkle"
)

// buildEngine partitions n records ("k000".."k..") across shards by ShardOf
// and publishes one view per shard, returning the engine and the records.
func buildEngine(t *testing.T, shards, n int) (*Engine, map[string]ads.Record) {
	t.Helper()
	sets := make([]*ads.Set, shards)
	for i := range sets {
		sets[i] = ads.NewSet()
	}
	recs := make(map[string]ads.Record)
	for i := 0; i < n; i++ {
		st := ads.NR
		if i%5 == 0 {
			st = ads.R
		}
		rec := ads.Record{Key: fmt.Sprintf("k%03d", i), State: st, Value: []byte(fmt.Sprintf("v%d", i))}
		recs[rec.Key] = rec
		sets[ShardOf(rec.Key, shards)].Put(rec)
	}
	e := NewEngine(shards)
	for i, s := range sets {
		e.Publish(i, NewView(i, 1, uint64(10+i), s.Clone()))
	}
	return e, recs
}

func TestEngineGetVerifies(t *testing.T) {
	e, recs := buildEngine(t, 4, 40)
	for key, want := range recs {
		res, err := e.Get(key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if !res.Found || res.Record == nil || string(res.Record.Value) != string(want.Value) {
			t.Fatalf("Get(%q) = %+v, want value %q", key, res, want.Value)
		}
		if res.Shard != ShardOf(key, 4) || res.Shards != 4 {
			t.Fatalf("Get(%q) routed to shard %d/%d", key, res.Shard, res.Shards)
		}
		if err := VerifyGet(key, res); err != nil {
			t.Fatalf("VerifyGet(%q): %v", key, err)
		}
	}
}

func TestEngineAbsenceVerifies(t *testing.T) {
	e, _ := buildEngine(t, 4, 40)
	for _, key := range []string{"missing", "", "k999", "a", "zzzz"} {
		res, err := e.Get(key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if res.Found {
			t.Fatalf("Get(%q) found a record", key)
		}
		if err := VerifyGet(key, res); err != nil {
			t.Fatalf("VerifyGet absent %q: %v", key, err)
		}
	}
	// An absence proof must not transplant to a present key on the same
	// shard (single shard so every key shares one root).
	one, _ := buildEngine(t, 1, 40)
	res, err := one.Get("missing")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyGet("k001", &GetResult{
		Key: "k001", Anchor: Anchor{Root: res.Root, Count: res.Count}, Absence: res.Absence,
	}); err == nil {
		t.Fatal("absence proof for missing key accepted for present k001")
	}
}

func TestEngineRangeVerifiesAndMerges(t *testing.T) {
	e, recs := buildEngine(t, 4, 40)
	lo, hi := "k005", "k025"
	results, err := e.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d shard slices, want 4", len(results))
	}
	got := map[string]bool{}
	for _, r := range results {
		if err := VerifyRange(lo, hi, &r); err != nil {
			t.Fatalf("VerifyRange shard %d: %v", r.Shard, err)
		}
		for _, rec := range r.Range.Records {
			got[rec.Key] = true
		}
	}
	for key, rec := range recs {
		want := rec.State == ads.NR && key >= lo && key <= hi
		if got[key] != want {
			t.Fatalf("range coverage for %q = %v, want %v", key, got[key], want)
		}
	}
}

func TestVerifyGetRejectsTampering(t *testing.T) {
	e, _ := buildEngine(t, 2, 16)
	key := "k001"
	fresh := func() *GetResult {
		res, err := e.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%q not found", key)
		}
		return res
	}

	res := fresh()
	res.Record.Value[0] ^= 0x01 // flipped record byte
	if err := VerifyGet(key, res); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("flipped record byte accepted: %v", err)
	}

	res = fresh()
	res.Proof.Path = res.Proof.Path[:len(res.Proof.Path)-1] // truncated proof
	if err := VerifyGet(key, res); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("truncated proof accepted: %v", err)
	}

	res = fresh()
	res.Record.Key = "k003" // proof transplanted to another key
	if err := VerifyGet(key, res); err == nil {
		t.Fatal("transplanted record accepted")
	}

	res = fresh()
	res.Count++ // lying about the record count
	if err := VerifyGet(key, res); err == nil {
		t.Fatal("inflated count accepted")
	}
}

// TestVerifyRangeRejectsOmission pins the completeness guarantee: a gateway
// that drops an in-window record (even with a proof that is internally
// consistent for the narrower span) is rejected.
func TestVerifyRangeRejectsOmission(t *testing.T) {
	s := ads.NewSet()
	for i := 0; i < 8; i++ {
		s.Put(ads.Record{Key: fmt.Sprintf("k%d", i), State: ads.NR, Value: []byte("v")})
	}
	v := NewView(0, 1, 1, s.Clone())
	full, err := v.RangeNR("k2", "k5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRange("k2", "k5", full); err != nil {
		t.Fatalf("honest range rejected: %v", err)
	}
	// Omission 1: drop a middle record from the honest answer.
	tampered := *full
	cut := *tampered.Range
	cut.Records = append(append([]ads.Record{}, cut.Records[:1]...), cut.Records[2:]...)
	tampered.Range = &cut
	if err := VerifyRange("k2", "k5", &tampered); err == nil {
		t.Fatal("dropped record accepted")
	}
	// Omission 2: answer honestly for a narrower window and present it for
	// the full one (internally consistent proof, wrong coverage): either the
	// in-window k2 is expanded in the pruned tree (record-list mismatch) or
	// it hides in a stub that provably may intersect the window.
	narrow, err := v.RangeNR("k3", "k5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRange("k2", "k5", narrow); err == nil {
		t.Fatal("narrowed answer accepted for wider window")
	}
}

// TestRetractedViewWaitsForSuccessor: a reader that finds its shard's view
// retracted blocks, reading none of it while the writer edits the retracted
// version in place, until the successor is published, and then answers from
// the successor with the writes that publication covers. Once that read has
// finished it no longer blocks retraction; a read still in flight does.
func TestRetractedViewWaitsForSuccessor(t *testing.T) {
	s := ads.NewSet()
	for i := 0; i < 64; i++ {
		s.Put(ads.Record{Key: fmt.Sprintf("k%03d", i), State: ads.NR, Value: []byte("v")})
	}
	e := NewEngine(1)
	e.Publish(0, NewView(0, 1, 1, s.Capture()))
	if !e.Retract(0) {
		t.Fatal("an unread view was not retracted")
	}
	if e.Retract(0) {
		t.Fatal("a view was retracted twice")
	}

	type answer struct {
		res *GetResult
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := e.Get("k007")
		got <- answer{res, err}
	}()
	// The writer owns the retracted version's nodes now (run with -race).
	s.Put(ads.Record{Key: "k007", State: ads.NR, Value: []byte("acked")})
	s.Root()
	select {
	case a := <-got:
		t.Fatalf("read answered from a retracted view before its successor was published: %+v, %v", a.res, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	e.Publish(0, NewView(0, 2, 2, s.Capture()))
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Seq != 2 || !a.res.Found || string(a.res.Record.Value) != "acked" {
		t.Fatalf("read after publish = seq %d found %v record %+v, want seq 2 value \"acked\"", a.res.Seq, a.res.Found, a.res.Record)
	}
	if err := VerifyGet("k007", a.res); err != nil {
		t.Fatal(err)
	}
	if a.res.Root != s.Root() {
		t.Fatal("answer does not verify against the successor's root")
	}
	held, err := e.ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Retract(0) {
		t.Fatal("a view was retracted with a read in flight")
	}
	held.Release()
	if !e.Retract(0) {
		t.Fatal("a view whose reads have all finished was not retracted")
	}
}

// TestViewRetractionSparesAWaitingReader: while a reader waits for the
// successor of a retracted view, that successor cannot be retracted, so a
// writer applying batches back to back cannot starve the reader.
func TestViewRetractionSparesAWaitingReader(t *testing.T) {
	e := NewEngine(1)
	e.Publish(0, NewView(0, 0, 0, ads.NewSet()))
	if !e.Retract(0) {
		t.Fatal("an unread view was not retracted")
	}
	got := make(chan *View)
	go func() {
		v, err := e.ViewOf(0)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	for e.shards[0].waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	next := NewView(0, 1, 1, ads.NewSet())
	e.Publish(0, next)
	if e.Retract(0) {
		t.Fatal("the view a reader waits for was retracted")
	}
	if v := <-got; v != next {
		t.Fatal("the waiting reader was not handed the successor")
	}
	next.Release()
	if !e.Retract(0) {
		t.Fatal("a view was not retracted once its waiting reader had read it")
	}
}

// TestViewRetractionAfterGetAndRange: Get and Range count themselves out of
// every view they counted into, so once they return, each shard's view may
// be retracted and edited in place.
func TestViewRetractionAfterGetAndRange(t *testing.T) {
	e, _ := buildEngine(t, 2, 32)
	for _, key := range []string{"k001", "k002", "missing"} {
		if _, err := e.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Range("k000", "k999"); err != nil {
		t.Fatal(err)
	}
	for shard := range 2 {
		if !e.Retract(shard) {
			t.Fatalf("shard %d: a view whose reads have all returned was not retracted", shard)
		}
	}
}

func TestEngineNoView(t *testing.T) {
	e := NewEngine(2)
	if _, err := e.Get("k"); !errors.Is(err, ErrNoView) {
		t.Fatalf("Get before publish: %v", err)
	}
	if _, err := e.Roots(); !errors.Is(err, ErrNoView) {
		t.Fatalf("Roots before publish: %v", err)
	}
}

// TestGetResultJSONRoundTrip pins the wire shape: a result survives the
// HTTP JSON round trip and still verifies.
func TestGetResultJSONRoundTrip(t *testing.T) {
	e, _ := buildEngine(t, 2, 16)
	for _, key := range []string{"k001", "definitely-missing"} {
		res, err := e.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back GetResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := VerifyGet(key, &back); err != nil {
			t.Fatalf("round-tripped result for %q fails verification: %v", key, err)
		}
	}
}

// TestAnchorAgainst pins the one anchor comparison: Seq alone orders two
// anchors, and at the same Seq any other field that differs is a fork.
func TestAnchorAgainst(t *testing.T) {
	pinned := Anchor{Seq: 7, Height: 30, Root: merkle.Hash{1, 2, 3}, Count: 12}
	otherRoot := pinned.Root
	otherRoot[31] ^= 0x01
	for _, tc := range []struct {
		name string
		got  Anchor
		want Relation
	}{
		{"same", pinned, Same},
		{"behind", Anchor{Seq: 6, Height: 30, Root: pinned.Root, Count: 12}, Behind},
		{"behind with every other field different", Anchor{Seq: 6, Height: 99, Root: otherRoot, Count: 1}, Behind},
		{"ahead", Anchor{Seq: 8, Height: 31, Root: otherRoot, Count: 13}, Ahead},
		{"ahead with every other field equal", Anchor{Seq: 8, Height: 30, Root: pinned.Root, Count: 12}, Ahead},
		{"forked by root", Anchor{Seq: 7, Height: 30, Root: otherRoot, Count: 12}, Forked},
		{"forked by count", Anchor{Seq: 7, Height: 30, Root: pinned.Root, Count: 13}, Forked},
		{"forked by height", Anchor{Seq: 7, Height: 35, Root: pinned.Root, Count: 12}, Forked},
	} {
		if got := tc.got.Against(pinned); got != tc.want {
			t.Errorf("%s: Against = %d, want %d", tc.name, got, tc.want)
		}
	}
	// The relation reverses with the arguments.
	ahead := Anchor{Seq: 8}
	if pinned.Against(ahead) != Behind || ahead.Against(pinned) != Ahead {
		t.Error("Against is not antisymmetric in Seq")
	}
}

// TestAnchorSameSet: two anchors hold the same set when the fields a proof
// binds, Root and Count, match, whatever their Seq and Height.
func TestAnchorSameSet(t *testing.T) {
	a := Anchor{Seq: 7, Height: 30, Root: merkle.Hash{1, 2, 3}, Count: 12}
	otherRoot := a.Root
	otherRoot[31] ^= 0x01
	for _, tc := range []struct {
		name string
		b    Anchor
		want bool
	}{
		{"same", a, true},
		{"seq and height differ", Anchor{Seq: 9, Height: 40, Root: a.Root, Count: 12}, true},
		{"root differs", Anchor{Seq: 7, Height: 30, Root: otherRoot, Count: 12}, false},
		{"count differs", Anchor{Seq: 7, Height: 30, Root: a.Root, Count: 13}, false},
	} {
		if got := a.SameSet(tc.b); got != tc.want || tc.b.SameSet(a) != tc.want {
			t.Errorf("%s: SameSet = %v, want %v both ways", tc.name, got, tc.want)
		}
	}
}
