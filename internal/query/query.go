// Package query implements the authenticated read path: a snapshot-isolated
// query engine that serves point reads, absence queries and key-range scans
// with Merkle proofs, entirely off the write hot path.
//
// Each shard worker publishes an immutable View — a frozen copy of its
// authenticated record set plus the set's root, the shard chain's height and
// a monotone sequence number — after every applied batch. The Engine holds
// one atomically-swapped View per shard; readers load the current views and
// assemble proofs against them concurrently, without ever touching the
// single-writer shard workers. Reads therefore scale with cores while writes
// keep their per-shard determinism, and every answer carries the evidence a
// light client needs to verify it against the advertised (root, count)
// anchors — the gateway itself is untrusted on this path, in the spirit of
// the verified-middlebox designs (LightBox, Slick) the ROADMAP points at.
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

// View is one shard's immutable read snapshot: a frozen record set with its
// Merkle tree built, pinned to the shard chain's height and a monotone
// per-shard sequence number. All methods are safe for concurrent use.
type View struct {
	shard  int
	seq    uint64
	height uint64
	set    *ads.Set
	root   merkle.Hash
	// countLeaf is the digest's count commitment, the last step of every
	// membership proof off this view.
	countLeaf merkle.Hash
}

// NewView wraps a frozen record set (ads.Set.Clone) into a view. The set
// must not be mutated afterwards.
func NewView(shard int, seq, height uint64, frozen *ads.Set) *View {
	return &View{
		shard: shard, seq: seq, height: height, set: frozen,
		root: frozen.Root(), countLeaf: ads.CountLeaf(frozen.Len()),
	}
}

// Root returns the view's authenticated digest.
func (v *View) Root() merkle.Hash { return v.root }

// Seq returns the view's publication sequence number.
func (v *View) Seq() uint64 { return v.seq }

// Height returns the shard chain height the view was published at.
func (v *View) Height() uint64 { return v.height }

// Len returns the number of records in the view.
func (v *View) Len() int { return v.set.Len() }

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

// Get answers a point read from this view.
func (v *View) Get(key string, shards int) (*GetResult, error) {
	res := &GetResult{
		Key: key, Shard: v.shard, Shards: shards,
		Seq: v.seq, Height: v.height, Root: v.root, Count: v.set.Len(),
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

// RangeNR answers this view's slice of a key-range scan.
func (v *View) RangeNR(lo, hi string, shards int) (*RangeResult, error) {
	nr, err := v.set.ProveRangeNR(lo, hi)
	if err != nil {
		return nil, err
	}
	return &RangeResult{
		Shard: v.shard, Shards: shards,
		Seq: v.seq, Height: v.height, Root: v.root, Count: v.set.Len(),
		Range: nr,
	}, nil
}

// Engine fans authenticated reads across per-shard views. Publish and the
// read methods are all safe for concurrent use; readers always see some
// complete published view per shard (snapshot isolation at batch
// granularity).
type Engine struct {
	views []atomic.Pointer[View]
	// proofHist, when non-nil, times proof construction (the proof_build
	// pipeline stage): one observation per Get, one per Range fan-out.
	proofHist *obs.Histogram
}

// SetProofHistogram wires the engine's proof-construction latency into a
// stage histogram (nil disables). Call before serving reads.
func (e *Engine) SetProofHistogram(h *obs.Histogram) { e.proofHist = h }

// NewEngine returns an engine for a feed with the given shard count.
func NewEngine(shards int) *Engine {
	if shards < 1 {
		shards = 1
	}
	return &Engine{views: make([]atomic.Pointer[View], shards)}
}

// Shards returns the partition count.
func (e *Engine) Shards() int { return len(e.views) }

// Publish atomically installs a shard's new read view.
func (e *Engine) Publish(shard int, v *View) {
	e.views[shard].Store(v)
}

// ViewOf returns a shard's current view.
func (e *Engine) ViewOf(shard int) (*View, error) {
	if shard < 0 || shard >= len(e.views) {
		return nil, fmt.Errorf("query: shard %d out of range [0,%d)", shard, len(e.views))
	}
	v := e.views[shard].Load()
	if v == nil {
		return nil, fmt.Errorf("%w: shard %d", ErrNoView, shard)
	}
	return v, nil
}

// Get answers a point read (membership or proven absence) from the key's
// home shard.
func (e *Engine) Get(key string) (*GetResult, error) {
	v, err := e.ViewOf(ShardOf(key, len(e.views)))
	if err != nil {
		return nil, err
	}
	if e.proofHist != nil {
		defer e.proofHist.ObserveSince(time.Now())
	}
	return v.Get(key, len(e.views))
}

// Range fans a key-range scan across every shard concurrently and gathers
// one completeness-proven slice per shard, in shard order.
func (e *Engine) Range(lo, hi string) ([]RangeResult, error) {
	if e.proofHist != nil {
		defer e.proofHist.ObserveSince(time.Now())
	}
	out := make([]RangeResult, len(e.views))
	errs := make([]error, len(e.views))
	var wg sync.WaitGroup
	for i := range e.views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.ViewOf(i)
			if err != nil {
				errs[i] = err
				return
			}
			r, err := v.RangeNR(lo, hi, len(e.views))
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

// Roots gathers every shard's current trust anchor.
func (e *Engine) Roots() ([]RootInfo, error) {
	out := make([]RootInfo, len(e.views))
	for i := range e.views {
		v, err := e.ViewOf(i)
		if err != nil {
			return nil, err
		}
		out[i] = RootInfo{Shard: i, Seq: v.seq, Height: v.height, Root: v.root, Count: v.set.Len()}
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
