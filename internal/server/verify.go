package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"grub/internal/query"
)

// ErrVerification wraps every rejection of a gateway response by the
// VerifyingClient: a tampered record, a truncated or transplanted proof, a
// stale or forked root, wrong shard routing, or missing shard coverage.
var ErrVerification = errors.New("server: gateway response failed verification")

// VerifyingClient is the light-client side of the authenticated read path:
// a Client whose Get and Range re-verify every Merkle proof against the
// advertised per-shard anchors before returning, and which pins those
// anchors across requests — the publication sequence must never go
// backwards, and a given sequence must never show two anchors. A gateway
// that flips a record byte, truncates a proof, omits a range record or
// replays a stale view is rejected with ErrVerification.
//
// The anchors bootstrap from the feed's roots endpoint on first use
// (trust-on-first-use here; a full deployment would pin them to the
// on-chain digest instead). All methods are safe for concurrent use.
type VerifyingClient struct {
	*Client

	mu      sync.Mutex
	anchors map[string]feedAnchor

	verified   atomic.Int64
	proofBytes atomic.Int64
}

// feedAnchor pins one feed's last-seen anchor per shard; its length is the
// feed's shard count. Every field is pinned: proofs verify against (root,
// count), so a gateway that reuses the genuine root but lies about the count
// (to fake absence of a tail record, or to truncate a range) must be caught
// here, and one seq has one chain height. A pin moves only to a new set.
type feedAnchor []query.Anchor

// observation is one shard's anchor claim from a response, plus the proof
// bytes it carried.
type observation struct {
	shard      int
	anchor     query.Anchor
	proofBytes int
}

// NewVerifyingClient returns a verifying client for a gateway at baseURL.
func NewVerifyingClient(baseURL string) *VerifyingClient {
	return &VerifyingClient{Client: NewClient(baseURL), anchors: make(map[string]feedAnchor)}
}

// VerifiedStats reports how many responses passed verification and the
// cumulative proof bytes they carried.
func (vc *VerifyingClient) VerifiedStats() (verified, proofBytes int64) {
	return vc.verified.Load(), vc.proofBytes.Load()
}

// anchor returns the feed's pinned anchor, bootstrapping it from the roots
// endpoint on first use.
func (vc *VerifyingClient) anchor(id string) (feedAnchor, error) {
	vc.mu.Lock()
	a := vc.anchors[id]
	vc.mu.Unlock()
	if a != nil {
		return a, nil
	}
	roots, err := vc.Roots(id)
	if err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("%w: empty roots", ErrVerification)
	}
	fresh := make(feedAnchor, len(roots))
	for i, ri := range roots {
		if ri.Shard != i {
			return nil, fmt.Errorf("%w: roots list shard %d at position %d", ErrVerification, ri.Shard, i)
		}
		fresh[i] = ri.Anchor()
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if a = vc.anchors[id]; a == nil {
		a, vc.anchors[id] = fresh, fresh
	}
	return a, nil
}

// check verifies one shard observation against the pinned anchor without
// moving it. The caller holds vc.mu.
func (a feedAnchor) check(o observation) error {
	if o.shard < 0 || o.shard >= len(a) {
		return fmt.Errorf("%w: shard %d out of range [0,%d)", ErrVerification, o.shard, len(a))
	}
	got, pinned := o.anchor, a[o.shard]
	switch got.Against(pinned) {
	case query.Behind:
		return fmt.Errorf("%w: stale root (shard %d seq %d behind pinned %d)", ErrVerification, o.shard, got.Seq, pinned.Seq)
	case query.Forked:
		return fmt.Errorf("%w: forked anchor at shard %d seq %d: root %s, %d records, height %d; pinned root %s, %d records, height %d",
			ErrVerification, o.shard, got.Seq, got.Root, got.Count, got.Height, pinned.Root, pinned.Count, pinned.Height)
	}
	return nil
}

// acceptAll checks a set of shard observations against the anchor
// atomically — all pass and the anchor advances, or none do — then credits
// the verification counters.
func (vc *VerifyingClient) acceptAll(a feedAnchor, obs []observation) error {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	for _, o := range obs {
		if err := a.check(o); err != nil {
			return err
		}
	}
	for _, o := range obs {
		// Only a new set moves the pin: a forward seq over the pinned set
		// proves nothing, and pinning it would refuse every honest answer
		// below it. The price: after a set returns to its pinned state
		// (A, B, A), the pin keeps A's older seq, so an answer of the B
		// between is still accepted (docs/API.md, roots).
		if !o.anchor.SameSet(a[o.shard]) {
			a[o.shard] = o.anchor
		}
		vc.verified.Add(1)
		vc.proofBytes.Add(int64(o.proofBytes))
	}
	return nil
}

// Get performs a verified point read: the returned record (or absence) is
// cryptographically checked against the pinned anchors before it is
// returned.
func (vc *VerifyingClient) Get(id, key string) (*query.GetResult, error) {
	a, err := vc.anchor(id)
	if err != nil {
		return nil, err
	}
	res, err := vc.Client.Get(id, key)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("%w: empty result", ErrVerification)
	}
	if res.Shards != len(a) {
		return nil, fmt.Errorf("%w: response claims %d shards, anchored %d", ErrVerification, res.Shards, len(a))
	}
	if want := query.ShardOf(key, len(a)); res.Shard != want {
		return nil, fmt.Errorf("%w: key %q answered by shard %d, routes to %d", ErrVerification, key, res.Shard, want)
	}
	if err := query.VerifyGet(key, res); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVerification, err)
	}
	o := observation{shard: res.Shard, anchor: res.Anchor, proofBytes: res.ProofBytes()}
	if err := vc.acceptAll(a, []observation{o}); err != nil {
		return nil, err
	}
	return res, nil
}

// Range performs a verified key-range scan: every shard must answer exactly
// once, and every slice's completeness proof must verify against the pinned
// anchors. It returns the per-shard slices in shard order; the merged
// result is the union of their records.
func (vc *VerifyingClient) Range(id, lo, hi string) ([]query.RangeResult, error) {
	a, err := vc.anchor(id)
	if err != nil {
		return nil, err
	}
	results, err := vc.Client.Range(id, lo, hi)
	if err != nil {
		return nil, err
	}
	if len(results) != len(a) {
		return nil, fmt.Errorf("%w: %d shard slices, anchored %d shards", ErrVerification, len(results), len(a))
	}
	obs := make([]observation, len(results))
	for i := range results {
		r := &results[i]
		if r.Shard != i {
			return nil, fmt.Errorf("%w: slice %d answers for shard %d", ErrVerification, i, r.Shard)
		}
		if r.Shards != len(a) {
			return nil, fmt.Errorf("%w: slice claims %d shards, anchored %d", ErrVerification, r.Shards, len(a))
		}
		if err := query.VerifyRange(lo, hi, r); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrVerification, i, err)
		}
		obs[i] = observation{shard: i, anchor: r.Anchor, proofBytes: r.ProofBytes()}
	}
	// Anchor checks after all proofs pass, and atomically across shards:
	// a rejected scan advances nothing and counts nothing.
	if err := vc.acceptAll(a, obs); err != nil {
		return nil, err
	}
	return results, nil
}
