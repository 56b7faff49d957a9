package core

import (
	"cmp"
	"slices"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
	"grub/internal/policy"
)

// DO is the trusted data owner: GRuB's control plane (workload monitor,
// decision maker, actuator — §3.2) plus the write path of the data plane
// (epoch-batched gPuts — §3.3).
type DO struct {
	addr    chain.Address
	manager chain.Address
	chain   *chain.Chain
	policy  policy.Policy

	// set is the feed's one authenticated record set. The DO produces
	// every record and is its only writer; the digest it signs on-chain
	// is this set's root, and the SP serves proofs from the same set
	// (see the package doc for why that is sound).
	set *ads.Set

	staged []KV
	// pendingState records keys whose policy target changed since the
	// last flush; the actuator materializes them in the next update().
	pendingState map[string]ads.State

	// lruTick and lastTouch implement the replica-reuse mode used for the
	// BtcRelay feed (§4.2): a bounded number of on-chain replicas with
	// least-recently-accessed eviction. Their one reader is
	// enforceReplicaBudget, so they are kept only when maxReplicas > 0; a
	// feed without a budget carries no per-key touch state.
	maxReplicas int
	lruTick     uint64
	lastTouch   map[string]uint64

	noADS bool
	// lastDigest is the digest most recently sent on-chain (signed: one
	// has been); epochs whose root is unchanged and that carry no replica
	// traffic are skipped (nothing to update).
	lastDigest merkle.Hash
	signed     bool

	// updates recycles the update transactions and their arguments: a slot
	// is reused once its update has executed.
	updates recycler[updateSlot, *updateSlot]
}

// updateSlot is one update in DO-owned storage: the transaction and its
// arguments, whose slices keep their capacity from one update to the next.
type updateSlot struct {
	txSlot
	args UpdateArgs
}

// nextUpdate returns a free update slot with empty arguments.
func (d *DO) nextUpdate() *updateSlot {
	s := d.updates.get()
	up := &s.args
	clear(up.Replicas) // hold no value bytes
	*up = UpdateArgs{Replicas: up.Replicas[:0], Evictions: up.Evictions[:0]}
	return s
}

// NewDO builds the data-owner node, which owns the feed's record set.
func NewDO(c *chain.Chain, manager chain.Address, addr chain.Address, p policy.Policy, maxReplicas int, noADS bool) *DO {
	return &DO{
		addr:         addr,
		manager:      manager,
		chain:        c,
		policy:       p,
		set:          ads.NewSet(),
		pendingState: make(map[string]ads.State),
		maxReplicas:  maxReplicas,
		lastTouch:    make(map[string]uint64),
	}
}

// Set exposes the feed's authenticated record set (scan expansion, read
// views, replication anchors and tests read it; only the DO writes it).
func (d *DO) Set() *ads.Set { return d.set }

// StageWrite buffers one data update for the current epoch and feeds it to
// the workload monitor. The record set keeps kv.Value's bytes (see KV).
func (d *DO) StageWrite(kv KV) {
	d.staged = append(d.staged, kv)
	d.observe(policy.Write(kv.Key))
}

// ObserveRead feeds one read into the workload monitor. Feed.monitorReads
// calls it for every gGet it finds in the chain's call trace.
func (d *DO) ObserveRead(key string) {
	d.observe(policy.Read(key))
}

// observe feeds op to the policy and records its decision as a pending state
// transition when it differs from the key's state in the set.
//
// A write whose target is NR skips the set lookup. The write is staged, and
// the flush that applies it stores the record in its policy.Target state
// and deletes the key's pending entry before it actuates any pending
// transition: the flush never acts on a written key's entry. Before the
// flush only PendingPromotion reads an entry, and only an R one. So an NR
// write decision has one thing to do: drop a pending promotion. An R
// decision keeps the lookup, since it is pending only where the set holds
// the key NR.
func (d *DO) observe(op policy.Op) {
	target := d.policy.Observe(op)
	if op.Write && target == ads.NR {
		delete(d.pendingState, op.Key)
	} else {
		cur := ads.NR
		if rec, ok := d.set.Get(op.Key); ok {
			cur = rec.State
		}
		if target != cur {
			d.pendingState[op.Key] = target
		} else {
			delete(d.pendingState, op.Key)
		}
	}
	if d.maxReplicas > 0 {
		d.lruTick++
		d.lastTouch[op.Key] = d.lruTick
	}
}

// PendingPromotion reports whether key has an un-actuated NR->R decision.
func (d *DO) PendingPromotion(key string) bool {
	st, ok := d.pendingState[key]
	if !ok || st != ads.R {
		return false
	}
	rec, ok := d.set.Get(key)
	return ok && rec.State == ads.NR
}

// FlushPromotion eagerly actuates a single key's NR->R transition without
// waiting for the epoch boundary: the record is relocated in the record set
// and an update transaction carrying the fresh digest plus the new replica
// is submitted. This is what lets GRuB serve the rest of a read burst from
// contract storage (the within-burst replication visible in the paper's
// Figures 5 and 9). It returns nil if there is nothing to do.
func (d *DO) FlushPromotion(key string) *chain.Tx {
	if !d.PendingPromotion(key) {
		return nil
	}
	d.set.SetState(key, ads.R)
	delete(d.pendingState, key)
	rec, _ := d.set.Get(key)
	s := d.nextUpdate()
	s.args.Replicas = append(s.args.Replicas, rec)
	return d.submitUpdate(s)
}

// submitUpdate signs the record set's current digest into the slot's
// arguments (unless the feed maintains no ADS) and submits the update
// transaction. An update that would change nothing on-chain — digest
// unchanged since the last one sent, no replica traffic — is skipped, and
// nil returned.
func (d *DO) submitUpdate(s *updateSlot) *chain.Tx {
	up := &s.args
	quiet := len(up.Replicas) == 0 && len(up.Evictions) == 0
	if !d.noADS {
		root := d.set.Root()
		if quiet && d.signed && root == d.lastDigest {
			return nil
		}
		up.Digest = root
		up.HasDigest = true
		d.lastDigest, d.signed = root, true
	} else if quiet {
		return nil
	}
	return s.submit(d.chain, chain.Tx{
		From:         d.addr,
		To:           d.manager,
		Method:       "update",
		Args:         up,
		PayloadBytes: up.PayloadSize(),
	})
}

// FlushEpoch ends the current epoch: it applies staged writes to the record
// set, materializes pending replication-state transitions, signs the new
// digest and submits the update transaction (gPuts). It returns the
// transaction, or nil if the epoch carried nothing. The transaction is
// valid until the DO next reuses it, which is not before it has executed.
func (d *DO) FlushEpoch() *chain.Tx {
	s := d.nextUpdate()
	up := &s.args

	// Data updates: apply under each key's target state.
	for _, kv := range d.staged {
		st := d.policy.Target(kv.Key)
		rec := ads.Record{Key: kv.Key, State: st, Value: kv.Value}
		prev, existed := d.set.Put(rec)
		delete(d.pendingState, kv.Key) // the write carries the state
		if st == ads.R {
			up.Replicas = append(up.Replicas, rec)
		} else if existed && prev == ads.R {
			// The write demoted a replicated record: the stale
			// on-chain replica must be evicted or gGet would keep
			// serving the old value.
			up.Evictions = append(up.Evictions, kv.Key)
		}
	}
	// State transitions not carried by a data write.
	for key, st := range d.pendingState {
		rec, ok := d.set.Get(key)
		if !ok {
			continue // decision for a key never fed
		}
		if rec.State == st {
			continue
		}
		d.set.SetState(key, st)
		if st == ads.R {
			rec.State = ads.R
			up.Replicas = append(up.Replicas, rec)
		} else {
			up.Evictions = append(up.Evictions, key)
		}
	}
	d.staged = d.staged[:0]
	clear(d.pendingState)

	// Replica-reuse mode: enforce the on-chain replica budget by evicting
	// the least recently accessed replicas (BtcRelay configuration).
	if d.maxReplicas > 0 {
		d.enforceReplicaBudget(up)
	}
	return d.submitUpdate(s)
}

// enforceReplicaBudget demotes the least-recently-touched R records until
// the replica count fits the budget, ties going to the lower key, and lists
// them in up.Evictions in that order.
func (d *DO) enforceReplicaBudget(up *UpdateArgs) {
	excess := d.set.CountState(ads.R) - d.maxReplicas
	if excess <= 0 {
		return
	}
	type replica struct {
		key   string
		touch uint64
	}
	// The R group arrives in key order, so a stable sort by touch breaks
	// ties by key.
	var replicas []replica
	for rec := range d.set.Group(ads.R) {
		replicas = append(replicas, replica{rec.Key, d.lastTouch[rec.Key]})
	}
	slices.SortStableFunc(replicas, func(a, b replica) int { return cmp.Compare(a.touch, b.touch) })
	for _, v := range replicas[:excess] {
		d.set.SetState(v.key, ads.NR)
		up.Evictions = append(up.Evictions, v.key)
	}
}
