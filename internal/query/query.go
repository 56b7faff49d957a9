// Package query implements the authenticated read path: a snapshot-isolated
// query engine that serves point reads, absence queries and key-range scans
// with Merkle proofs, entirely off the write hot path.
//
// Each shard worker publishes an immutable View — a version of its
// authenticated record set plus the set's root, the shard chain's height and
// a monotone sequence number — after every applied batch. The Engine holds
// one atomically-swapped View per shard; readers load the current views and
// assemble proofs against them concurrently, without ever sending the
// single-writer shard workers a message, while writes keep their per-shard
// determinism. Reads of different shards share no memory they write; reads
// of one shard share one word, its view's read count (below).
//
// Copy-on-write is paid only for the views someone is reading. A view counts
// its reads in flight: a reader counts itself in (one atomic add) before it
// reads any node and out (another) once its answer is detached, and the
// shard worker, before its next batch, retracts the view if no read is in
// flight. A retracted view is never read again, so the batch edits its nodes
// in place; a read in flight makes the worker end the set's generation, so
// the batch copies every node the view reaches before writing it. A reader
// that finds a view retracted waits for the successor, which the worker
// publishes when that one batch is applied; while a reader waits, the worker
// retracts no view, so back-to-back batches cannot starve it. Roots reads
// only the anchor each view captured at publish, so it neither counts itself
// in nor waits.
//
// The price is paid on the read side: counting in and out is two atomic
// adds on a word that every reader of the shard writes, where a flag set
// once by a view's first reader would cost a read one load. On many cores
// the reads of one hot shard would queue on that cache line. On a 2-core
// Xeon the two adds cost about 20 ns on one core and 50 ns with both cores
// doing nothing else, and BenchmarkEngineGet (1 to 1.4 µs per read) shows
// no difference between the two rules inside its noise; where a many-core
// box would meet that ceiling, two cores cannot show.
//
// Every answer carries the evidence a light client needs to verify it
// against the advertised per-shard Anchor (seq, height, root, count) — the
// gateway itself is untrusted on this path, in the spirit of the
// verified-middlebox designs (LightBox, Slick) the ROADMAP points at.
//
// Verification contract: a response is trustworthy relative to the per-shard
// anchors. Proofs verify against an anchor's (Root, Count); in a full
// deployment that pair is exactly what the on-chain digest attests. Here GET
// /feeds/{id}/roots advertises the anchors, and server.VerifyingClient pins
// them across requests (monotone Seq, one anchor per Seq, compared by
// Anchor.Against), so a gateway that tampers with a record, truncates a proof
// or serves a stale or forked view is rejected client-side.
package query

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/ads"
	"grub/internal/merkle"
	"grub/internal/obs"
)

// ErrNoView is returned when a shard has not published a read view yet.
var ErrNoView = errors.New("query: no published view")

// ShardOf maps a key to its shard index in [0, n): FNV-1a over the key
// bytes, the same pure routing the write path uses (internal/shard delegates
// here), so clients can re-derive — and verify — which shard must answer for
// a key.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// View is one shard's immutable read snapshot: a version of its record set
// with the Merkle tree built, tied to the shard chain's height and a
// monotone per-shard sequence number. All methods are safe for concurrent
// use.
//
// A view counts its reads in flight (see Engine.ViewOf and Release), and its
// shard worker retracts it, for good, only while that count is zero and no
// reader of the shard waits (see Engine.Retract). Its
// tree nodes may be read only between ViewOf and Release; its anchor (seq,
// height, root, count) was captured at publish and may be read at any time.
type View struct {
	shard  int
	anchor Anchor
	set    *ads.Set
	// readers counts the reads in flight, and holds retracted once the
	// view is retracted.
	readers atomic.Int32
	// countLeaf is the digest's count commitment, the last step of every
	// membership proof off this view.
	countLeaf merkle.Hash
}

// NewView wraps a record set version into a view. The set must not be
// mutated afterwards unless Engine.Retract retracted the view first.
func NewView(shard int, seq, height uint64, frozen *ads.Set) *View {
	n := frozen.Len()
	return &View{
		shard: shard, set: frozen, countLeaf: ads.CountLeaf(n),
		anchor: Anchor{Seq: seq, Height: height, Root: frozen.Root(), Count: n},
	}
}

// retracted is a retracted view's read count: so far below zero that the
// readers who find the view retracted, each adding one and leaving, never
// bring it back up to zero.
const retracted = math.MinInt32 / 2

// acquire counts a read in, reporting false if the view was retracted.
func (v *View) acquire() bool { return v.readers.Add(1) > 0 }

// Release counts out a read that Engine.ViewOf counted in, exactly once per
// ViewOf. The caller must have detached what it keeps of the view: Get and
// RangeNR answers are.
func (v *View) Release() { v.readers.Add(-1) }

// Anchor returns the anchor the view captured at publish.
func (v *View) Anchor() Anchor { return v.anchor }

// FeedPath returns the gateway path of one feed's route: "/feeds/", the
// feed ID escaped as a single path segment, then rest, the route's suffix
// and query as given. A feed ID may hold any character; joined raw, a "/",
// "?", "#" or "%" in it would reach another route or fail to parse.
func FeedPath(id, rest string) string {
	return "/feeds/" + url.PathEscape(id) + rest
}

// Anchor is one shard's trust anchor: the publication sequence, the shard
// chain's height, and the authenticated set's root and the record count it
// covers. Proofs verify against (Root, Count); Seq orders the anchors of one
// shard. The read answers, the replication log's entries and the shard image
// embed it, in this field order, which is the read answers' JSON order.
//
// Anchor deliberately has no MarshalJSON and no String method: either would
// be promoted onto every struct that embeds it.
type Anchor struct {
	Seq    uint64      `json:"seq"`
	Height uint64      `json:"height"`
	Root   merkle.Hash `json:"root"`
	Count  int         `json:"count"`
}

// Relation is where one anchor of a shard stands against another: Same
// (every field equal), Behind or Ahead (a lower or higher Seq, whatever the
// other fields hold), or Forked (the same Seq and any other field different:
// two histories).
type Relation int8

const (
	Same Relation = iota
	Behind
	Ahead
	Forked
)

// Against reports where a stands against b: Behind or Ahead by Seq alone,
// and at the same Seq, Same when every field matches and Forked otherwise.
// It is the one comparison of two anchors: every check of a shipped, stored,
// served or pinned anchor goes through it.
func (a Anchor) Against(b Anchor) Relation {
	switch {
	case a.Seq < b.Seq:
		return Behind
	case a.Seq > b.Seq:
		return Ahead
	case a == b:
		return Same
	}
	return Forked
}

// SameSet reports whether a and b anchor the same authenticated set: the
// Root and Count a proof verifies against. No proof binds Seq or Height.
func (a Anchor) SameSet(b Anchor) bool {
	return a.Root == b.Root && a.Count == b.Count
}

// RootInfo advertises one shard's trust anchor (GET /feeds/{id}/roots). Its
// fields stay flat, in the anchor's order, so callers build it by name.
type RootInfo struct {
	Shard  int         `json:"shard"`
	Seq    uint64      `json:"seq"`
	Height uint64      `json:"height"`
	Root   merkle.Hash `json:"root"`
	Count  int         `json:"count"`
}

// Anchor returns the advertised anchor.
func (ri RootInfo) Anchor() Anchor {
	return Anchor{Seq: ri.Seq, Height: ri.Height, Root: ri.Root, Count: ri.Count}
}

// GetResult answers a point read: either a record with its membership proof
// or an absence proof, plus the shard anchor it verifies against.
type GetResult struct {
	Key    string `json:"key"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Anchor
	Found bool `json:"found"`
	// Record and Proof are set when Found; Absence otherwise.
	Record  *ads.Record       `json:"record,omitempty"`
	Proof   *merkle.Proof     `json:"proof,omitempty"`
	Absence *ads.AbsenceProof `json:"absence,omitempty"`
}

// ProofBytes returns the size of the carried evidence, for proof-transfer
// accounting (bench: proof bytes per verified op).
func (r *GetResult) ProofBytes() int {
	n := 0
	if r.Proof != nil {
		n += r.Proof.Size()
	}
	if r.Record != nil {
		n += r.Record.Size()
	}
	if r.Absence != nil {
		n += r.Absence.Size()
	}
	return n
}

// RangeResult is one shard's slice of a key-range scan: the NR records in
// [lo, hi] that live on this shard, completeness-proven against the shard's
// anchor. The hash partition destroys global key order, so a range query
// fans out to every shard and the client merges the verified slices.
type RangeResult struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	Anchor
	Range *ads.NRRange `json:"range"`
}

// ProofBytes returns the size of the carried evidence.
func (r *RangeResult) ProofBytes() int {
	if r.Range == nil {
		return 0
	}
	return r.Range.Size()
}

// copyRecord detaches a record from the view's backing memory. Results
// cross the engine boundary into arbitrary consumers; without the copy, a
// consumer mutating a result would corrupt the persistent tree's shared
// immutable nodes — and through them every other live view. (The absence
// and range proofs already carry detached copies, by the ads package's
// contract.)
func copyRecord(r ads.Record) ads.Record {
	r.Value = append([]byte(nil), r.Value...)
	return r
}

// Get answers a point read from this view, which must be frozen or held
// between Engine.ViewOf and Release. The answer is detached from the view.
func (v *View) Get(key string, shards int) (*GetResult, error) {
	res := &GetResult{Key: key, Shard: v.shard, Shards: shards, Anchor: v.anchor}
	var p merkle.Proof // on the stack: only a hit's copy escapes
	if rec, ok := v.set.ProveKeyAt(key, v.countLeaf, &p); ok {
		// Declared here so that a miss allocates no record and no proof.
		own, proof := copyRecord(rec), p
		res.Found, res.Record, res.Proof = true, &own, &proof
		return res, nil
	}
	ap, err := v.set.ProveAbsent(key)
	if err != nil {
		return nil, err
	}
	res.Absence = ap
	return res, nil
}

// RangeNR answers this view's slice of a key-range scan. Like Get, it reads
// the tree, so the view must be frozen or held, and its answer is detached.
func (v *View) RangeNR(lo, hi string, shards int) (*RangeResult, error) {
	nr, err := v.set.ProveRangeNR(lo, hi)
	if err != nil {
		return nil, err
	}
	return &RangeResult{Shard: v.shard, Shards: shards, Anchor: v.anchor, Range: nr}, nil
}

// Engine fans authenticated reads across per-shard views. Publish, Retract
// and the read methods are all safe for concurrent use; readers always see
// some complete published view per shard (snapshot isolation at batch
// granularity).
type Engine struct {
	shards []shardViews
	// proofHist, when non-nil, times proof construction (the proof_build
	// pipeline stage): one observation per Get, one per Range fan-out.
	proofHist *obs.Histogram
}

// shardViews is one shard's current view and the wake-up for readers that
// found it retracted. Publish stores under mu and broadcasts next; a
// waiting reader re-checks the pointer under mu, so no publish is missed.
// While waiting counts any such reader, Retract fails, so the successor it
// waits for cannot be retracted before it is read.
type shardViews struct {
	view    atomic.Pointer[View]
	waiting atomic.Int32
	mu      sync.Mutex
	next    sync.Cond
}

// SetProofHistogram wires the engine's proof-construction latency into a
// stage histogram (nil disables). Call before serving reads.
func (e *Engine) SetProofHistogram(h *obs.Histogram) { e.proofHist = h }

// NewEngine returns an engine for a feed with the given shard count.
func NewEngine(shards int) *Engine {
	if shards < 1 {
		shards = 1
	}
	e := &Engine{shards: make([]shardViews, shards)}
	for i := range e.shards {
		e.shards[i].next.L = &e.shards[i].mu
	}
	return e
}

// Shards returns the partition count.
func (e *Engine) Shards() int { return len(e.shards) }

// Publish atomically installs a shard's new read view and wakes the readers
// waiting on the view it replaces.
func (e *Engine) Publish(shard int, v *View) {
	sv := &e.shards[shard]
	sv.mu.Lock()
	sv.view.Store(v)
	sv.mu.Unlock()
	sv.next.Broadcast()
}

// Retract withdraws a shard's current view from readers if no read of it is
// in flight and no reader of the shard is waiting, reporting whether it did.
// A true result means no reader is reading, or ever will read again, the
// view's tree, so its set may be mutated in place; the caller must then
// Publish the shard's next view, which is what the readers that find the
// retracted view wait for. False (a read is in flight, a reader waits, or
// there is no view) leaves everything as it was.
func (e *Engine) Retract(shard int) bool {
	sv := &e.shards[shard]
	v := sv.view.Load()
	return v != nil && sv.waiting.Load() == 0 && v.readers.CompareAndSwap(0, retracted)
}

// current returns a shard's current view without counting a read in: its
// anchor is readable, its tree is not.
func (e *Engine) current(shard int) (*View, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, fmt.Errorf("query: shard %d out of range [0,%d)", shard, len(e.shards))
	}
	v := e.shards[shard].view.Load()
	if v == nil {
		return nil, fmt.Errorf("%w: shard %d", ErrNoView, shard)
	}
	return v, nil
}

// ViewOf returns a shard's current view with a read counted in: until the
// caller's Release, its shard worker copies, never edits in place, every
// node of it. A reader that finds the current view retracted waits for the
// shard's next Publish and counts itself into that one instead. While it
// waits it is counted as waiting, and the worker retracts no view, so
// however fast batches follow one another it reads, at the latest, the
// successor of the view that was current when it began to wait.
func (e *Engine) ViewOf(shard int) (*View, error) {
	for waited := false; ; waited = true {
		v, err := e.current(shard)
		if err != nil || v.acquire() {
			if waited {
				e.shards[shard].waiting.Add(-1)
			}
			return v, err
		}
		sv := &e.shards[shard]
		if !waited {
			sv.waiting.Add(1)
		}
		sv.mu.Lock()
		for sv.view.Load() == v {
			sv.next.Wait()
		}
		sv.mu.Unlock()
	}
}

// Get answers a point read (membership or proven absence) from the key's
// home shard.
func (e *Engine) Get(key string) (*GetResult, error) {
	v, err := e.ViewOf(ShardOf(key, len(e.shards)))
	if err != nil {
		return nil, err
	}
	defer v.Release()
	if e.proofHist != nil {
		defer e.proofHist.ObserveSince(time.Now())
	}
	return v.Get(key, len(e.shards))
}

// Range fans a key-range scan across every shard concurrently and gathers
// one completeness-proven slice per shard, in shard order.
func (e *Engine) Range(lo, hi string) ([]RangeResult, error) {
	if e.proofHist != nil {
		defer e.proofHist.ObserveSince(time.Now())
	}
	out := make([]RangeResult, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.ViewOf(i)
			if err != nil {
				errs[i] = err
				return
			}
			r, err := v.RangeNR(lo, hi, len(e.shards))
			v.Release()
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = *r
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Roots gathers every shard's current trust anchor. It reads only what each
// view captured at publish, so it counts no read in and never waits.
func (e *Engine) Roots() ([]RootInfo, error) {
	out := make([]RootInfo, len(e.shards))
	for i := range e.shards {
		v, err := e.current(i)
		if err != nil {
			return nil, err
		}
		a := v.anchor
		out[i] = RootInfo{Shard: i, Seq: a.Seq, Height: a.Height, Root: a.Root, Count: a.Count}
	}
	return out, nil
}

// VerifyGet re-derives a point-read answer's correctness from its carried
// evidence: the proof must speak for the requested key and verify against
// the (Root, Count) anchor. It does NOT check the anchor itself — callers
// pin anchors across requests (server.VerifyingClient) or fetch them from
// the roots endpoint.
func VerifyGet(key string, r *GetResult) error {
	if r == nil {
		return fmt.Errorf("%w: nil result", merkle.ErrInvalidProof)
	}
	if r.Key != key {
		return fmt.Errorf("%w: result speaks for key %q, not %q", merkle.ErrInvalidProof, r.Key, key)
	}
	if !r.Found {
		return ads.VerifyAbsentAt(r.Root, r.Count, key, r.Absence)
	}
	if r.Record == nil || r.Proof == nil {
		return fmt.Errorf("%w: found without record or proof", merkle.ErrInvalidProof)
	}
	if r.Record.Key != key {
		return fmt.Errorf("%w: proof speaks for key %q, not %q", merkle.ErrInvalidProof, r.Record.Key, key)
	}
	if r.Proof.LeafCount != r.Count {
		return fmt.Errorf("%w: leaf count %d does not match %d records", merkle.ErrInvalidProof, r.Proof.LeafCount, r.Count)
	}
	if r.Proof.Index >= r.Count {
		return fmt.Errorf("%w: record index %d beyond %d records", merkle.ErrInvalidProof, r.Proof.Index, r.Count)
	}
	// The digest commits the record count as the final fold step, so a
	// count lie relative to the proof is cryptographically checkable: the
	// last path node must be the count leaf for the claimed count.
	if n := len(r.Proof.Path); n == 0 || !r.Proof.Path[n-1].Left || r.Proof.Path[n-1].Hash != ads.CountLeaf(r.Count) {
		return fmt.Errorf("%w: proof does not commit to %d records", merkle.ErrInvalidProof, r.Count)
	}
	return ads.VerifyRecord(r.Root, *r.Record, r.Proof)
}

// VerifyRange re-derives one shard slice's correctness: every record is an
// in-window NR record and the boundary-anchored span proves completeness
// against the (Root, Count) anchor.
func VerifyRange(lo, hi string, r *RangeResult) error {
	if r == nil {
		return fmt.Errorf("%w: nil result", merkle.ErrInvalidProof)
	}
	return ads.VerifyRangeNRAt(r.Root, r.Count, lo, hi, r.Range)
}
