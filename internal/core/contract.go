package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
)

// Storage slot names inside the manager contract. A slot is named by
// concatenating a prefix and a key where it is used: the chain retains no
// slot argument, so a name of up to 32 bytes is built on the stack.
const (
	slotRoot = "root"
	kvPrefix = "kv:"
	cntRead  = "cnt-r:"
	cntWrite = "cnt-w:"
)

// ErrUnauthorized is returned when update() is called by anyone but the DO.
var ErrUnauthorized = errors.New("core: update not sent by the data owner")

// ErrBadProof is returned when a deliver proof fails verification.
var ErrBadProof = errors.New("core: deliver proof rejected")

// TraceMode selects the on-chain-trace dynamic baselines of Figure 7: the
// decision trace is persisted in contract storage, paying storage prices per
// operation. GRuB itself uses TraceOff (the trace lives off-chain).
type TraceMode int

const (
	// TraceOff keeps workload monitoring off-chain (GRuB, BL1, BL2).
	TraceOff TraceMode = iota
	// TraceReads persists the read trace on-chain (dynamic baseline
	// "trace of reads").
	TraceReads
	// TraceReadsWrites persists both traces on-chain (dynamic baseline
	// "trace of reads and writes", BL3).
	TraceReadsWrites
)

// StorageManager is the Go transcription of the paper's storage-manager
// smart contract (Listing 2). It is registered on a simulated chain and all
// of its operations are Gas-metered.
type StorageManager struct {
	addr  chain.Address
	owner chain.Address
	trace TraceMode
	// set is the DO's record set, whose sealed nodes deliver verifies
	// against (the package doc says why that is sound).
	set *ads.Set

	// nextID numbers request events so the SP watchdog can answer each
	// exactly once. Kept in contract memory, not storage: Ethereum logs
	// are identified by position, not by stored counters, so this costs
	// no Gas.
	nextID uint64

	// requests is the chunk request events are emitted from, by pointer.
	// An event stays on the chain until the watchdog takes it, so one is
	// never rewritten: a full chunk is left to the events still holding
	// it and a fresh one started.
	requests []RequestEvent
	// callbacks holds the arguments of the callbacks in progress, one per
	// nesting level (a callback may issue a gGet of its own). A callback's
	// *CallbackArgs is valid only while it runs.
	callbacks []CallbackArgs
}

// requestChunk is how many request events share one allocation.
const requestChunk = 64

// NewStorageManager registers the manager contract at addr, owned (for
// update authorization) by owner. deliver verifies membership proofs with
// set.VerifyMember, set being the owner's record set, and accepts exactly the
// proofs merkle.Verify accepts.
func NewStorageManager(c *chain.Chain, addr, owner chain.Address, trace TraceMode, set *ads.Set) *StorageManager {
	m := &StorageManager{addr: addr, owner: owner, trace: trace, set: set}
	c.Register(addr, "gGet", m.gGet)
	c.Register(addr, "deliver", m.deliver)
	c.Register(addr, "deliverAbsent", m.deliverAbsent)
	c.Register(addr, "update", m.update)
	return m
}

// Address returns the contract's address.
func (m *StorageManager) Address() chain.Address { return m.addr }

// gGet serves a read: a replicated record is returned (and the callback
// invoked) synchronously from contract storage; otherwise a request event is
// emitted for the SP watchdog and the callback fires later from deliver.
// It returns nothing: the value reaches the DU through its callback.
func (m *StorageManager) gGet(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*GetArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("core: gGet args %T", args)
	}
	if m.trace == TraceReads || m.trace == TraceReadsWrites {
		m.bumpCounter(ctx, cntRead+a.Key)
	}
	if v, ok := ctx.Load(kvPrefix + a.Key); ok {
		if !a.Callback.Zero() {
			if err := m.callback(ctx, a.Callback, CallbackArgs{Key: a.Key, Value: v, Found: true}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if len(m.requests) == cap(m.requests) {
		m.requests = make([]RequestEvent, 0, requestChunk)
	}
	m.requests = append(m.requests, RequestEvent{ID: m.nextID, Key: a.Key, Callback: a.Callback})
	m.nextID++
	ctx.Emit("request", &m.requests[len(m.requests)-1], len(a.Key)+16)
	return nil, nil
}

// callback invokes a DU callback with manager-owned arguments.
func (m *StorageManager) callback(ctx *chain.Ctx, cb Callback, a CallbackArgs) error {
	m.callbacks = append(m.callbacks, a)
	_, err := ctx.Call(cb.Contract, cb.Method, &m.callbacks[len(m.callbacks)-1])
	m.callbacks[len(m.callbacks)-1] = CallbackArgs{} // hold no value bytes
	m.callbacks = m.callbacks[:len(m.callbacks)-1]
	if err != nil {
		return fmt.Errorf("core: callback: %w", err)
	}
	return nil
}

// deliver verifies an off-chain record against the stored digest, optionally
// persists a replica (when the record's authenticated state is R), and
// invokes the pending callback (Listing 2's deliver).
func (m *StorageManager) deliver(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*DeliverArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("core: deliver args %T", args)
	}
	root, err := m.loadRoot(ctx)
	if err != nil {
		return nil, err
	}
	// Meter the on-chain verification: one leaf hash over the record plus
	// one 64-byte hash per path node.
	ctx.ChargeHash(a.Record.Size())
	if a.Proof != nil {
		for range a.Proof.Path {
			ctx.ChargeHash(2 * merkle.HashSize)
		}
	}
	// The fold reads back what the DO's seal hashed; any other step hashes.
	if err := m.set.VerifyMember(root, a.Record, a.Proof); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	// The record's state bit is authenticated by the proof: the SP cannot
	// lie about whether to replicate.
	if a.Record.State == ads.R {
		ctx.Store(kvPrefix+a.Record.Key, a.Record.Value)
	}
	if !a.Callback.Zero() {
		if err := m.callback(ctx, a.Callback, CallbackArgs{Key: a.Record.Key, Value: a.Record.Value, Found: true}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// deliverAbsent proves a requested key absent and completes the callback
// with Found=false.
func (m *StorageManager) deliverAbsent(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*DeliverAbsentArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("core: deliverAbsent args %T", args)
	}
	root, err := m.loadRoot(ctx)
	if err != nil {
		return nil, err
	}
	if a.Proof != nil { // VerifyAbsent refuses a nil proof
		ctx.ChargeHash(a.Proof.Size())
	}
	if err := ads.VerifyAbsent(root, a.Key, a.Proof); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if !a.Callback.Zero() {
		if err := m.callback(ctx, a.Callback, CallbackArgs{Key: a.Key, Found: false}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// update applies one epoch's batch: new digest, replica writes, evictions
// (Listing 2's update plus the §3.3 state-transition handling).
func (m *StorageManager) update(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*UpdateArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("core: update args %T", args)
	}
	if ctx.Origin() != m.owner {
		return nil, ErrUnauthorized
	}
	if a.HasDigest {
		ctx.Store(slotRoot, a.Digest[:])
	}
	for _, r := range a.Replicas {
		if m.trace == TraceReadsWrites {
			m.bumpCounter(ctx, cntWrite+r.Key)
		}
		ctx.Store(kvPrefix+r.Key, r.Value)
	}
	for _, k := range a.Evictions {
		if m.trace == TraceReadsWrites {
			m.bumpCounter(ctx, cntWrite+k)
		}
		ctx.DeleteSlot(kvPrefix + k)
	}
	return nil, nil
}

func (m *StorageManager) loadRoot(ctx *chain.Ctx) (merkle.Hash, error) {
	var h merkle.Hash
	if n, ok := ctx.LoadInto(slotRoot, h[:]); !ok || n != merkle.HashSize {
		return merkle.Hash{}, fmt.Errorf("%w: no digest on chain", ErrBadProof)
	}
	return h, nil
}

// bumpCounter persists a one-word trace counter, paying storage prices: this
// is exactly the cost the on-chain-trace baselines incur per operation and
// that GRuB's off-chain control plane avoids.
func (m *StorageManager) bumpCounter(ctx *chain.Ctx, slot string) {
	var n uint64
	if raw, ok := ctx.Load(slot); ok && len(raw) == 8 {
		n = binary.BigEndian.Uint64(raw)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n+1)
	ctx.Store(slot, buf[:])
}
