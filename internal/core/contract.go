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

	// nextID numbers request events so the SP watchdog can answer each
	// exactly once. Kept in contract memory, not storage: Ethereum logs
	// are identified by position, not by stored counters, so this costs
	// no Gas.
	nextID uint64
}

// NewStorageManager registers the manager contract at addr, owned (for
// update authorization) by owner.
func NewStorageManager(c *chain.Chain, addr, owner chain.Address, trace TraceMode) *StorageManager {
	m := &StorageManager{addr: addr, owner: owner, trace: trace}
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
func (m *StorageManager) gGet(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(GetArgs)
	if !ok {
		return nil, fmt.Errorf("core: gGet args %T", args)
	}
	if m.trace == TraceReads || m.trace == TraceReadsWrites {
		m.bumpCounter(ctx, cntRead+a.Key)
	}
	if v, ok := ctx.Load(kvPrefix + a.Key); ok {
		if !a.Callback.Zero() {
			if _, err := ctx.Call(a.Callback.Contract, a.Callback.Method, CallbackArgs{Key: a.Key, Value: v, Found: true}); err != nil {
				return nil, fmt.Errorf("core: callback: %w", err)
			}
		}
		return v, nil
	}
	ev := RequestEvent{ID: m.nextID, Key: a.Key, Callback: a.Callback}
	m.nextID++
	ctx.Emit("request", ev, len(a.Key)+16)
	return nil, nil
}

// deliver verifies an off-chain record against the stored digest, optionally
// persists a replica (when the record's authenticated state is R), and
// invokes the pending callback (Listing 2's deliver).
func (m *StorageManager) deliver(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(DeliverArgs)
	if !ok {
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
	if err := ads.VerifyRecord(root, a.Record, a.Proof); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	// The record's state bit is authenticated by the proof: the SP cannot
	// lie about whether to replicate.
	if a.Record.State == ads.R {
		ctx.Store(kvPrefix+a.Record.Key, a.Record.Value)
	}
	if !a.Callback.Zero() {
		if _, err := ctx.Call(a.Callback.Contract, a.Callback.Method, CallbackArgs{Key: a.Record.Key, Value: a.Record.Value, Found: true}); err != nil {
			return nil, fmt.Errorf("core: callback: %w", err)
		}
	}
	return a.Record.Value, nil
}

// deliverAbsent proves a requested key absent and completes the callback
// with Found=false.
func (m *StorageManager) deliverAbsent(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(DeliverAbsentArgs)
	if !ok {
		return nil, fmt.Errorf("core: deliverAbsent args %T", args)
	}
	root, err := m.loadRoot(ctx)
	if err != nil {
		return nil, err
	}
	ctx.ChargeHash(a.Proof.Size())
	if err := ads.VerifyAbsent(root, a.Key, a.Proof); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if !a.Callback.Zero() {
		if _, err := ctx.Call(a.Callback.Contract, a.Callback.Method, CallbackArgs{Key: a.Key, Found: false}); err != nil {
			return nil, fmt.Errorf("core: callback: %w", err)
		}
	}
	return nil, nil
}

// update applies one epoch's batch: new digest, replica writes, evictions
// (Listing 2's update plus the §3.3 state-transition handling).
func (m *StorageManager) update(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(UpdateArgs)
	if !ok {
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
	raw, ok := ctx.Load(slotRoot)
	if !ok || len(raw) != merkle.HashSize {
		return merkle.Hash{}, fmt.Errorf("%w: no digest on chain", ErrBadProof)
	}
	var h merkle.Hash
	copy(h[:], raw)
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
