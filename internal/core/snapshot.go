package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
	"grub/internal/policy"
)

// ErrFeedBusy is returned by Snapshot when the feed is mid-transaction:
// snapshots capture quiescent points only (between applied ops, nothing in
// the mempool, no unanswered request events).
var ErrFeedBusy = errors.New("core: feed not quiescent")

// FeedSnapshot is the complete serializable state of a Feed at a quiescent
// point. Restoring it onto a feed built from the same configuration yields a
// feed that is behaviorally identical to the original: same record set and
// digest, same replication decisions going forward, same cumulative Gas,
// chain height and delivered counters.
//
// The chain's event log and call trace are not captured (see chain.State):
// the feed consumes both as it goes and holds no position into either.
type FeedSnapshot struct {
	Chain chain.State `json:"chain"`

	// Records is the feed's authenticated record set (DO and SP share it).
	Records []ads.Record `json:"records,omitempty"`
	// Policy is the decision maker's serialized state (policy.Snapshotter);
	// nil for stateless policies.
	Policy []byte `json:"policy,omitempty"`

	// DO epoch-in-progress state.
	Staged       []KV                 `json:"staged,omitempty"`
	PendingState map[string]ads.State `json:"pendingState,omitempty"`
	// LRUTick and LastTouch are the replica-budget LRU clock; empty for a
	// feed without a budget (Options.MaxReplicas == 0), which ignores them
	// when a snapshot written before that rule carries them.
	LRUTick   uint64            `json:"lruTick,omitempty"`
	LastTouch map[string]uint64 `json:"lastTouch,omitempty"`
	// LastDigest is the digest most recently sent on-chain (nil before the
	// first update or for NoADS feeds).
	LastDigest []byte `json:"lastDigest,omitempty"`

	// Feed-level counters and DU-side application state.
	Delivered  int               `json:"delivered"`
	NotFound   int               `json:"notFound"`
	OpsInEpoch int               `json:"opsInEpoch,omitempty"`
	LastValue  map[string][]byte `json:"lastValue,omitempty"`
}

// Encode serializes the snapshot for storage.
func (s *FeedSnapshot) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeFeedSnapshot parses an encoded snapshot.
func DecodeFeedSnapshot(data []byte) (*FeedSnapshot, error) {
	var s FeedSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: decode feed snapshot: %w", err)
	}
	return &s, nil
}

// PendingRequests returns the number of request events the watchdog has seen
// but not yet answered (non-zero only when delivery is being suppressed).
func (s *SPNode) PendingRequests() int { return len(s.pending) }

// Snapshot captures the feed's complete state. The feed must be quiescent:
// no transactions in the mempool and no unanswered request events. Staged
// (un-flushed) epoch writes are part of the state and are captured.
func (f *Feed) Snapshot() (*FeedSnapshot, error) {
	if n := f.SP.PendingRequests(); n != 0 {
		return nil, fmt.Errorf("%w: %d unanswered requests", ErrFeedBusy, n)
	}
	cs, err := f.Chain.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFeedBusy, err)
	}
	snap := &FeedSnapshot{
		Chain:      cs,
		Records:    f.DO.set.Records(),
		LRUTick:    f.DO.lruTick,
		Delivered:  f.delivered,
		NotFound:   f.notFound,
		OpsInEpoch: f.opsInEpoch,
	}
	if sn, ok := f.DO.policy.(policy.Snapshotter); ok {
		ps, err := sn.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot policy: %w", err)
		}
		snap.Policy = ps
	}
	if len(f.DO.staged) > 0 {
		snap.Staged = make([]KV, len(f.DO.staged))
		for i, kv := range f.DO.staged {
			snap.Staged[i] = KV{Key: kv.Key, Value: append([]byte(nil), kv.Value...)}
		}
	}
	if len(f.DO.pendingState) > 0 {
		snap.PendingState = make(map[string]ads.State, len(f.DO.pendingState))
		for k, st := range f.DO.pendingState {
			snap.PendingState[k] = st
		}
	}
	if len(f.DO.lastTouch) > 0 {
		snap.LastTouch = make(map[string]uint64, len(f.DO.lastTouch))
		for k, t := range f.DO.lastTouch {
			snap.LastTouch[k] = t
		}
	}
	if f.DO.signed {
		snap.LastDigest = append([]byte(nil), f.DO.lastDigest[:]...)
	}
	if len(f.LastValue) > 0 {
		snap.LastValue = make(map[string][]byte, len(f.LastValue))
		for k, v := range f.LastValue {
			snap.LastValue[k] = append([]byte(nil), v...)
		}
	}
	return snap, nil
}

// RestoreFeed wires a feed exactly like NewFeed — same contracts on the
// given (fresh) chain, same policy, same options — and then installs a
// snapshot's state instead of running genesis. The chain must be newly
// constructed with the same params and gas schedule the original used, and p
// must be a policy constructed with the same parameters; snap supplies all
// accumulated state.
func RestoreFeed(c *chain.Chain, p policy.Policy, opts Options, snap *FeedSnapshot) (*Feed, error) {
	if err := c.Restore(snap.Chain); err != nil {
		return nil, fmt.Errorf("core: restore chain: %w", err)
	}
	f := wireFeed(c, p, opts)
	do := f.DO

	// Insertion order is irrelevant — the set orders by (state, key) — so
	// the digest matches the original's bit for bit.
	for _, rec := range snap.Records {
		do.set.Put(rec)
	}
	if snap.Policy != nil {
		sn, ok := p.(policy.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: snapshot has policy state but %s cannot restore it", p.Name())
		}
		if err := sn.RestoreState(snap.Policy); err != nil {
			return nil, err
		}
	}
	if len(snap.Staged) > 0 {
		do.staged = make([]KV, len(snap.Staged))
		for i, kv := range snap.Staged {
			do.staged[i] = KV{Key: kv.Key, Value: append([]byte(nil), kv.Value...)}
		}
	}
	for k, st := range snap.PendingState {
		do.pendingState[k] = st
	}
	if do.maxReplicas > 0 {
		do.lruTick = snap.LRUTick
		for k, t := range snap.LastTouch {
			do.lastTouch[k] = t
		}
	}
	if snap.LastDigest != nil {
		if len(snap.LastDigest) != merkle.HashSize {
			return nil, fmt.Errorf("core: restore: bad digest length %d", len(snap.LastDigest))
		}
		copy(do.lastDigest[:], snap.LastDigest)
		do.signed = true
	}
	f.delivered = snap.Delivered
	f.notFound = snap.NotFound
	f.opsInEpoch = snap.OpsInEpoch
	for k, v := range snap.LastValue {
		f.LastValue[k] = append([]byte(nil), v...)
	}
	return f, nil
}
