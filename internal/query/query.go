// Package query implements the authenticated read path: a snapshot-isolated
// query engine that serves point reads, absence queries and key-range scans
// with Merkle proofs, entirely off the write hot path.
//
// Each shard worker publishes an immutable View — a version of its
// authenticated record set plus the set's root, the shard chain's height and
// a monotone sequence number — after every applied batch. The Engine holds
// one atomically-swapped View per shard; readers load the current views and
// assemble proofs against them concurrently, without ever sending the
// single-writer shard workers a message. Reads therefore scale with cores
// while writes keep their per-shard determinism.
//
// Copy-on-write is paid only for the views someone reads. A reader pins a
// view (one CompareAndSwap, and only a load once it is pinned) before it
// reads any node, and the shard worker, before its next batch, retracts the
// view if nobody did. A retracted view is never read, so the batch edits its
// nodes in place; a pinned one makes the worker end the set's generation,
// so the batch copies every node the view reaches before writing it. A
// reader that finds a view retracted waits for the successor, which the
// worker publishes when that one batch is applied. Roots reads only the
// anchor each view captured at publish, so it neither pins nor waits.
//
// Every answer carries the evidence a light client needs to verify it
// against the advertised (root, count) anchors — the gateway itself is
// untrusted on this path, in the spirit of the verified-middlebox designs
// (LightBox, Slick) the ROADMAP points at.
//
// Verification contract: a response is trustworthy relative to the per-shard
// (Root, Count) pairs. In a full deployment those pairs are exactly what the
// on-chain digest attests; here GET /feeds/{id}/roots advertises them, and
// server.VerifyingClient pins them across requests (monotone Seq, stable
// root per Seq), so a gateway that tampers with a record, truncates a proof
// or serves a stale or forked view is rejected client-side.
package query

import (
	"errors"
	"fmt"
	"hash/fnv"
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
// A view is published, then either pinned by its first reader or retracted
// by its shard worker, never both (see Engine.ViewOf). Its tree nodes may be
// read only once it is pinned; its anchor (seq, height, root, count) was
// captured at publish and may be read at any time.
type View struct {
	shard  int
	seq    uint64
	height uint64
	set    *ads.Set
	root   merkle.Hash
	count  int
	state  atomic.Uint32
	// countLeaf is the digest's count commitment, the last step of every
	// membership proof off this view.
	countLeaf merkle.Hash
}

// View states. A view leaves viewPublished once, by one CompareAndSwap.
const (
	viewPublished uint32 = iota
	// viewPinned: a reader may read the tree, so the shard worker ends the
	// set's generation before its next batch and copies what it writes.
	viewPinned
	// viewRetracted: no reader ever will, so the next batch edits the
	// view's nodes in place.
	viewRetracted
)

// NewView wraps a record set version into a view. The set must not be
// mutated afterwards unless Engine.Retract retracted the view first.
func NewView(shard int, seq, height uint64, frozen *ads.Set) *View {
	n := frozen.Len()
	return &View{
		shard: shard, seq: seq, height: height, set: frozen,
		root: frozen.Root(), count: n, countLeaf: ads.CountLeaf(n),
	}
}

// pin claims the view for reading, reporting false if it was retracted.
func (v *View) pin() bool {
	switch v.state.Load() {
	case viewPinned:
		return true // the common case under reads costs no write
	case viewRetracted:
		return false
	}
	return v.state.CompareAndSwap(viewPublished, viewPinned) || v.state.Load() == viewPinned
}

// Root returns the view's authenticated digest.
func (v *View) Root() merkle.Hash { return v.root }

// Seq returns the view's publication sequence number.
func (v *View) Seq() uint64 { return v.seq }

// Height returns the shard chain height the view was published at.
func (v *View) Height() uint64 { return v.height }

// Len returns the number of records in the view.
func (v *View) Len() int { return v.count }

// RootInfo advertises one shard's trust anchor: the digest, the record
// count it covers, and the (seq, height) the view was published at.
type RootInfo struct {
	Shard  int         `json:"shard"`
	Seq    uint64      `json:"seq"`
	Height uint64      `json:"height"`
	Root   merkle.Hash `json:"root"`
	Count  int         `json:"count"`
}

// GetResult answers a point read: either a record with its membership proof
// or an absence proof, plus the shard anchor it verifies against.
type GetResult struct {
	Key    string      `json:"key"`
	Shard  int         `json:"shard"`
	Shards int         `json:"shards"`
	Seq    uint64      `json:"seq"`
	Height uint64      `json:"height"`
	Root   merkle.Hash `json:"root"`
	Count  int         `json:"count"`
	Found  bool        `json:"found"`
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
	Shard  int          `json:"shard"`
	Shards int          `json:"shards"`
	Seq    uint64       `json:"seq"`
	Height uint64       `json:"height"`
	Root   merkle.Hash  `json:"root"`
	Count  int          `json:"count"`
	Range  *ads.NRRange `json:"range"`
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

// Get answers a point read from this view, which must be frozen or pinned
// (Engine.ViewOf returns it pinned).
func (v *View) Get(key string, shards int) (*GetResult, error) {
	res := &GetResult{
		Key: key, Shard: v.shard, Shards: shards,
		Seq: v.seq, Height: v.height, Root: v.root, Count: v.count,
	}
	if rec, p, ok := v.set.ProveKeyAt(key, v.countLeaf); ok {
		own := copyRecord(rec) // declared here so that a miss allocates no record
		res.Found, res.Record, res.Proof = true, &own, p
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
// the tree, so the view must be frozen or pinned.
func (v *View) RangeNR(lo, hi string, shards int) (*RangeResult, error) {
	nr, err := v.set.ProveRangeNR(lo, hi)
	if err != nil {
		return nil, err
	}
	return &RangeResult{
		Shard: v.shard, Shards: shards,
		Seq: v.seq, Height: v.height, Root: v.root, Count: v.count,
		Range: nr,
	}, nil
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
type shardViews struct {
	view atomic.Pointer[View]
	mu   sync.Mutex
	next sync.Cond
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

// Retract withdraws a shard's current view from readers if none has pinned
// it, reporting whether it did. A true result means no reader has read, or
// ever will read, the view's tree, so its set may be mutated in place; the
// caller must then Publish the shard's next view, which is what the readers
// that find the retracted view wait for. False (a reader pinned the view, or
// there is none) leaves everything as it was.
func (e *Engine) Retract(shard int) bool {
	v := e.shards[shard].view.Load()
	return v != nil && v.state.CompareAndSwap(viewPublished, viewRetracted)
}

// current returns a shard's current view without pinning it: its anchor is
// readable, its tree is not.
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

// ViewOf returns a shard's current view, pinned: its shard worker will copy,
// never edit in place, every node of it. A reader that finds the current view
// retracted waits for the shard's next Publish — one in-flight batch — and
// pins that one instead.
func (e *Engine) ViewOf(shard int) (*View, error) {
	for {
		v, err := e.current(shard)
		if err != nil || v.pin() {
			return v, err
		}
		sv := &e.shards[shard]
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
// view captured at publish, so it pins nothing and never waits.
func (e *Engine) Roots() ([]RootInfo, error) {
	out := make([]RootInfo, len(e.shards))
	for i := range e.shards {
		v, err := e.current(i)
		if err != nil {
			return nil, err
		}
		out[i] = RootInfo{Shard: i, Seq: v.seq, Height: v.height, Root: v.root, Count: v.count}
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
