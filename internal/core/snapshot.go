package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
	"grub/internal/policy"
	"grub/internal/wire"
)

// ErrFeedBusy is returned by Snapshot when the feed is mid-transaction:
// snapshots capture quiescent points only (between applied ops, nothing in
// the mempool, no unanswered request events).
var ErrFeedBusy = errors.New("core: feed not quiescent")

// FeedSnapshot is the complete state of a Feed at a quiescent point, in its
// one binary encoding (docs/API.md, "Binary shard image encoding"): the
// chain's state, the record set in (state, key) order, the policy state,
// the DO's epoch state, the digest flag and the counters, every map in key
// order. Restoring it onto a feed built from the same configuration yields a
// feed that is behaviorally identical to the original: same record set and
// digest, same replication decisions going forward, same cumulative Gas,
// chain height and delivered counters.
type FeedSnapshot struct {
	Enc []byte
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
	b, err := f.Chain.AppendState(make([]byte, 0, f.imageLen))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFeedBusy, err)
	}
	do := f.DO
	b = wire.AppendInt(b, do.set.Len())
	for _, st := range [...]ads.State{ads.NR, ads.R} {
		for rec := range do.set.Group(st) {
			b = wire.AppendBytes(wire.AppendString(append(b, byte(st)), rec.Key), rec.Value)
		}
	}
	var ps []byte
	if sn, ok := do.policy.(policy.Snapshotter); ok {
		if ps, err = sn.SnapshotState(); err != nil {
			return nil, fmt.Errorf("core: snapshot policy: %w", err)
		}
	}
	b = wire.AppendInt(wire.AppendBytes(b, ps), len(do.staged))
	for _, kv := range do.staged {
		b = wire.AppendBytes(wire.AppendString(b, kv.Key), kv.Value)
	}
	b = wire.AppendInt(b, len(do.pendingState))
	for _, k := range slices.Sorted(maps.Keys(do.pendingState)) {
		b = append(wire.AppendString(b, k), byte(do.pendingState[k]))
	}
	b = wire.AppendInt(wire.AppendUint(b, do.lruTick), len(do.lastTouch))
	for _, k := range slices.Sorted(maps.Keys(do.lastTouch)) {
		b = wire.AppendUint(wire.AppendString(b, k), do.lastTouch[k])
	}
	if do.signed {
		b = append(append(b, 1), do.lastDigest[:]...)
	} else {
		b = append(b, 0)
	}
	b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, f.delivered), f.notFound), f.opsInEpoch)
	b = wire.AppendInt(b, len(f.LastValue))
	for _, k := range slices.Sorted(maps.Keys(f.LastValue)) {
		b = wire.AppendBytes(wire.AppendString(b, k), f.LastValue[k])
	}
	f.imageLen = len(b)
	return &FeedSnapshot{Enc: b}, nil
}

// RestoreFeed wires a feed exactly like NewFeed — same contracts on the
// given (fresh) chain, same policy, same options — and then installs a
// snapshot's state instead of running genesis. The chain must be newly
// constructed with the same params and gas schedule the original used, and p
// must be a policy constructed with the same parameters; snap supplies all
// accumulated state. snap is untrusted bytes: a malformed one is an error,
// and the feed keeps no byte of it.
func RestoreFeed(c *chain.Chain, p policy.Policy, opts Options, snap *FeedSnapshot) (*Feed, error) {
	r := wire.Borrow(snap.Enc)
	if err := c.ReadState(r); err != nil {
		return nil, fmt.Errorf("core: restore chain: %w", err)
	}
	f := wireFeed(c, p, opts)
	do := f.DO

	// Insertion order is irrelevant — the set orders by (state, key) — so
	// the digest matches the original's bit for bit.
	for n := r.Count(3); n > 0; n-- {
		st := readState(r)
		key := r.OwnStr()
		do.set.Put(ads.Record{Key: key, State: st, Value: bytes.Clone(r.Bytes(r.Int()))})
	}
	if ps := r.Bytes(r.Int()); len(ps) > 0 {
		sn, ok := p.(policy.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("core: snapshot has policy state but %s cannot restore it", p.Name())
		}
		if err := sn.RestoreState(ps); err != nil {
			return nil, err
		}
	}
	for n := r.Count(2); n > 0; n-- {
		key := r.OwnStr()
		do.staged = append(do.staged, KV{Key: key, Value: bytes.Clone(r.Bytes(r.Int()))})
	}
	for n := r.Count(2); n > 0; n-- {
		key := r.OwnStr()
		do.pendingState[key] = readState(r)
	}
	do.lruTick = r.Uint()
	for n := r.Count(2); n > 0; n-- {
		key := r.OwnStr()
		do.lastTouch[key] = r.Uint()
	}
	switch signed := r.Byte(); signed {
	case 0:
	case 1:
		copy(do.lastDigest[:], r.Bytes(merkle.HashSize))
		do.signed = true
	default:
		r.Fail("digest flag %d", signed)
	}
	f.delivered, f.notFound, f.opsInEpoch = r.Int(), r.Int(), r.Int()
	for n := r.Count(2); n > 0; n-- {
		key := r.OwnStr()
		f.LastValue[key] = bytes.Clone(r.Bytes(r.Int()))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	f.imageLen = len(snap.Enc)
	return f, nil
}

// readState reads a replication state byte, which must be NR or R; any
// other fails r and reads as NR.
func readState(r *wire.Reader) ads.State {
	st := ads.State(r.Byte())
	if st > ads.R {
		r.Fail("state byte %d", st)
		return ads.NR
	}
	return st
}
