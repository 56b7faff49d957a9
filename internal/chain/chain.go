// Package chain implements a deterministic simulated blockchain with an
// Ethereum-style Gas cost model, sufficient to reproduce every Gas
// measurement in the GRuB paper.
//
// The simulator models:
//
//   - contracts as Go objects registering method handlers,
//   - transactions with calldata-sized base costs (Table 2),
//   - metered contract storage (insert/update/load at Table 2 prices),
//   - an EVM-style event log for the request/deliver read path,
//   - block production every B time units, transaction propagation delay Pt
//     and a finality depth F (used by the protocol-consistency tests), and
//   - per-contract Gas attribution, so experiments can split "feed layer"
//     Gas from "application layer" Gas exactly like the paper's Table 3.
//
// There is no consensus, no adversarial miner and no bytecode: Gas in
// Ethereum is a deterministic function of the operations performed, so a
// faithful price table plus faithful operation counts reproduces the paper's
// measured quantity.
package chain

import (
	"errors"
	"fmt"
	"strings"

	"grub/internal/gas"
	"grub/internal/sim"
)

// Address identifies a contract or an external account.
type Address string

// Params holds the blockchain timing model of paper §3.4: block interval B,
// transaction propagation delay Pt and finality depth F.
type Params struct {
	// BlockInterval is B, the average time between blocks.
	BlockInterval sim.Duration
	// PropagationDelay is Pt, the time for a submitted transaction to
	// reach all nodes (and thus become minable).
	PropagationDelay sim.Duration
	// FinalityDepth is F, the number of blocks after which a transaction
	// is considered final (250 in Ethereum per the paper).
	FinalityDepth int
}

// DefaultParams mirrors the constants quoted in the paper for Ethereum:
// B ~ 13s, F = 250, and a small propagation delay.
func DefaultParams() Params {
	return Params{BlockInterval: 13, PropagationDelay: 2, FinalityDepth: 250}
}

// Handler executes a contract method. args is method-specific; the return
// value is passed back to internal callers. ctx is valid until the handler
// returns: the chain reuses it for the next call at the same depth.
type Handler func(ctx *Ctx, args any) (any, error)

// Event is an EVM-log-style event emitted during execution.
type Event struct {
	Contract Address
	Name     string
	Data     any
	// SizeBytes is the charged payload size.
	SizeBytes int
	Block     uint64
	Time      sim.Time
}

// Tx is a transaction: an external call into a contract method.
type Tx struct {
	From   Address
	To     Address
	Method string
	Args   any
	// PayloadBytes is the calldata size used for the Table 2 transaction
	// cost 21000 + 2176*words.
	PayloadBytes int

	// Filled in by execution.
	Submitted sim.Time
	Included  sim.Time
	Block     uint64
	GasUsed   gas.Gas
	Err       error
	Ret       any
	executed  bool
}

// Executed reports whether the transaction has been included in a block.
func (t *Tx) Executed() bool { return t.executed }

// Chain is the simulated blockchain. It is not safe for concurrent use: the
// simulation is single-threaded for determinism.
type Chain struct {
	clock    *sim.Clock
	params   Params
	schedule gas.Schedule

	handlers map[Address]map[string]Handler
	// storage holds each contract's slots. A slot's bytes are never handed
	// out (Load and Snapshot copy), so Store overwrites them in place.
	storage map[Address]map[string][]byte

	mempool []*Tx
	height  uint64
	// events, calls, block and drained back the slices TakeEvents,
	// TakeCalls, MineBlock and MineUntilEmpty return; each is reused, so a
	// returned slice is valid until the next take, mine or View.
	events         []Event
	calls          []CallRecord
	block, drained []*Tx

	// meter and frames are the executing transaction's: its Gas meter and
	// one execution context per call depth, reused by every transaction.
	meter  gas.Meter
	frames []*Ctx

	totalGas gas.Gas
	// gasByContract is the per-contract attribution ledger; a context
	// charges its contract's entry through a pointer it looks up once.
	gasByContract map[Address]*gas.Gas
	txCount       int
}

// CallRecord is one entry of the node's execution trace: every contract call
// (external or internal) is recorded, mirroring how an Ethereum full node
// can trace internal calls without any Gas cost. GRuB's DO monitors gGet
// reads through this trace (paper §3.2).
type CallRecord struct {
	To     Address
	Method string
	Args   any
	Block  uint64
	Time   sim.Time
}

// New creates a chain using clock for time and the given params and gas
// schedule.
func New(clock *sim.Clock, params Params, schedule gas.Schedule) *Chain {
	return &Chain{
		clock:         clock,
		params:        params,
		schedule:      schedule,
		handlers:      make(map[Address]map[string]Handler),
		storage:       make(map[Address]map[string][]byte),
		gasByContract: make(map[Address]*gas.Gas),
	}
}

// NewDefault creates a chain with a fresh clock, default params and the
// Table 2 schedule. It is the convenient constructor for experiments.
func NewDefault() *Chain {
	return New(sim.NewClock(0), DefaultParams(), gas.DefaultSchedule())
}

// Clock exposes the simulation clock.
func (c *Chain) Clock() *sim.Clock { return c.clock }

// Params returns the timing parameters.
func (c *Chain) Params() Params { return c.params }

// Schedule returns the gas schedule.
func (c *Chain) Schedule() gas.Schedule { return c.schedule }

// Height returns the current block height.
func (c *Chain) Height() uint64 { return c.height }

// TotalGas returns the cumulative gas across all executed transactions.
func (c *Chain) TotalGas() gas.Gas { return c.totalGas }

// GasOf returns the cumulative gas attributed to a contract (storage, hash,
// log and call costs incurred while executing in its context, plus the base
// cost of transactions addressed to it).
func (c *Chain) GasOf(addr Address) gas.Gas {
	if g := c.gasByContract[addr]; g != nil {
		return *g
	}
	return 0
}

// ledger returns addr's entry in the attribution ledger, creating it.
func (c *Chain) ledger(addr Address) *gas.Gas {
	g := c.gasByContract[addr]
	if g == nil {
		g = new(gas.Gas)
		c.gasByContract[addr] = g
	}
	return g
}

// TxCount returns the number of executed transactions.
func (c *Chain) TxCount() int { return c.txCount }

// ErrUnknownContract is returned when calling an unregistered address.
var ErrUnknownContract = errors.New("chain: unknown contract")

// ErrUnknownMethod is returned when calling an unregistered method.
var ErrUnknownMethod = errors.New("chain: unknown method")

// Register installs a contract method handler at addr.
func (c *Chain) Register(addr Address, method string, h Handler) {
	m, ok := c.handlers[addr]
	if !ok {
		m = make(map[string]Handler)
		c.handlers[addr] = m
	}
	m[method] = h
}

// Submit places a transaction in the mempool. It becomes minable after the
// propagation delay Pt.
func (c *Chain) Submit(tx *Tx) {
	tx.Submitted = c.clock.Now()
	c.mempool = append(c.mempool, tx)
}

// MineBlock advances time by one block interval and executes every mempool
// transaction that has finished propagating. It returns the executed
// transactions in a slice that is valid until the next mine.
func (c *Chain) MineBlock() []*Tx {
	c.clock.Advance(c.params.BlockInterval)
	c.height++
	now := c.clock.Now()
	c.block = c.block[:0]
	rest := c.mempool[:0]
	for _, tx := range c.mempool {
		if tx.Submitted+c.params.PropagationDelay <= now {
			c.block = append(c.block, tx)
		} else {
			rest = append(rest, tx)
		}
	}
	clear(c.mempool[len(rest):])
	c.mempool = rest
	for _, tx := range c.block {
		c.execute(tx)
	}
	return c.block
}

// MineUntilEmpty mines blocks until the mempool drains, returning all
// executed transactions in a slice that is valid until the next mine. It
// protects against livelock with a generous block cap.
func (c *Chain) MineUntilEmpty() []*Tx {
	c.drained = c.drained[:0]
	for i := 0; len(c.mempool) > 0; i++ {
		if i > 1_000_000 {
			panic("chain: MineUntilEmpty did not drain the mempool")
		}
		c.drained = append(c.drained, c.MineBlock()...)
	}
	return c.drained
}

// execute runs one transaction, metering gas.
func (c *Chain) execute(tx *Tx) {
	tx.Included = c.clock.Now()
	tx.Block = c.height
	tx.executed = true
	c.meter = gas.Meter{}
	ctx := c.frame(0, tx.To, tx.From, tx.From, &c.meter)
	ctx.charge(c.schedule.Tx(tx.PayloadBytes))
	ret, err := ctx.dispatch(tx.To, tx.Method, tx.Args)
	tx.Ret = ret
	tx.Err = err
	tx.GasUsed = c.meter.Used()
	c.totalGas += tx.GasUsed
	c.txCount++
}

// frame returns the execution context of a call at the given depth of the
// current call stack, reset for contract to.
func (c *Chain) frame(depth int, to, origin, caller Address, meter *gas.Meter) *Ctx {
	for len(c.frames) <= depth {
		c.frames = append(c.frames, new(Ctx))
	}
	x := c.frames[depth]
	*x = Ctx{chain: c, contract: to, origin: origin, caller: caller, meter: meter, depth: depth}
	return x
}

// FinalizedHeight returns the highest block height considered final.
func (c *Chain) FinalizedHeight() uint64 {
	if c.height < uint64(c.params.FinalityDepth) {
		return 0
	}
	return c.height - uint64(c.params.FinalityDepth)
}

// TakeEvents hands the event stream's single consumer (the SP watchdog)
// every event emitted since the previous take, and keeps nothing: the chain
// is a transport for monitoring streams, not their archive. The returned
// slice is the chain's reused buffer, valid until the next take, mine or
// View.
func (c *Chain) TakeEvents() []Event {
	evs := c.events
	c.events = c.events[:0]
	return evs
}

// Ctx is the execution context handed to contract handlers. All storage,
// hashing, logging and call operations are metered at the chain's schedule
// and attributed to the contract whose code is executing.
type Ctx struct {
	chain    *Chain
	contract Address
	origin   Address
	caller   Address
	meter    *gas.Meter
	// ledger is the contract's attribution entry, looked up at the first
	// charge; depth is the call-stack depth the context occupies.
	ledger *gas.Gas
	depth  int
}

// Contract returns the currently executing contract's address.
func (x *Ctx) Contract() Address { return x.contract }

// Origin returns the external account that sent the enclosing transaction
// (tx.origin semantics).
func (x *Ctx) Origin() Address { return x.origin }

// Caller returns the immediate caller: the sending account for an external
// call, or the calling contract for an internal one (msg.sender semantics).
func (x *Ctx) Caller() Address { return x.caller }

// Time returns the current simulated time (block timestamp).
func (x *Ctx) Time() sim.Time { return x.chain.clock.Now() }

// Block returns the current block height.
func (x *Ctx) Block() uint64 { return x.chain.height }

// GasUsed reports the gas consumed so far in the enclosing transaction.
func (x *Ctx) GasUsed() gas.Gas { return x.meter.Used() }

func (x *Ctx) charge(g gas.Gas) {
	x.meter.Charge(g)
	if x.ledger == nil {
		x.ledger = x.chain.ledger(x.contract)
	}
	*x.ledger += g
}

// Store writes value into the contract's storage slot, charging the insert
// price for fresh slots and the update price for overwrites. Neither slot
// nor value is retained: a fresh slot stores copies, and an overwrite of
// the same length reuses the slot's bytes.
func (x *Ctx) Store(slot string, value []byte) {
	st := x.chain.storage[x.contract]
	if st == nil {
		st = make(map[string][]byte)
		x.chain.storage[x.contract] = st
	}
	if old, exists := st[slot]; exists {
		x.charge(x.chain.schedule.StoreUpdate(len(value)))
		if len(old) == len(value) {
			copy(old, value)
			return
		}
	} else {
		x.charge(x.chain.schedule.StoreInsert(len(value)))
	}
	st[strings.Clone(slot)] = append([]byte(nil), value...)
}

// Load reads a storage slot, charging the per-word read price. ok reports
// whether the slot exists.
func (x *Ctx) Load(slot string) (value []byte, ok bool) {
	st := x.chain.storage[x.contract]
	v, ok := st[slot]
	n := len(v)
	if n == 0 {
		n = gas.WordSize // reading an empty slot still touches one word
	}
	x.charge(x.chain.schedule.Load(n))
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// DeleteSlot removes a storage slot, charging the clear price.
func (x *Ctx) DeleteSlot(slot string) {
	st := x.chain.storage[x.contract]
	if v, ok := st[slot]; ok {
		x.charge(x.chain.schedule.StoreClear(len(v)))
		delete(st, slot)
	}
}

// HasSlot reports (and charges for) a storage existence check.
func (x *Ctx) HasSlot(slot string) bool {
	_, ok := x.chain.storage[x.contract][slot]
	x.charge(x.chain.schedule.Load(gas.WordSize))
	return ok
}

// ChargeHash meters a hash computation over n bytes (proof verification on
// chain is priced through this).
func (x *Ctx) ChargeHash(n int) {
	x.charge(x.chain.schedule.Hash(n))
}

// Emit appends an event of the given payload size to the chain's log,
// charging LOG prices (one topic for the event name).
func (x *Ctx) Emit(name string, data any, sizeBytes int) {
	x.charge(x.chain.schedule.Log(1, sizeBytes))
	x.chain.events = append(x.chain.events, Event{
		Contract:  x.contract,
		Name:      name,
		Data:      data,
		SizeBytes: sizeBytes,
		Block:     x.chain.height,
		Time:      x.chain.clock.Now(),
	})
}

// Call performs an internal (message) call into another contract, charging
// the call overhead and attributing gas spent inside to the callee.
func (x *Ctx) Call(to Address, method string, args any) (any, error) {
	x.charge(x.chain.schedule.CallBase)
	sub := x.chain.frame(x.depth+1, to, x.origin, x.contract, x.meter)
	return sub.dispatch(to, method, args)
}

func (x *Ctx) dispatch(to Address, method string, args any) (any, error) {
	m, ok := x.chain.handlers[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, to)
	}
	h, ok := m[method]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, to, method)
	}
	x.chain.calls = append(x.chain.calls, CallRecord{
		To:     to,
		Method: method,
		Args:   args,
		Block:  x.chain.height,
		Time:   x.chain.clock.Now(),
	})
	return h(x, args)
}

// TakeCalls hands the execution trace's single consumer (the DO's read
// monitor) every call recorded since the previous take, and keeps nothing.
// Like TakeEvents, it returns the chain's reused buffer, valid until the
// next take, mine or View.
func (c *Chain) TakeCalls() []CallRecord {
	calls := c.calls
	c.calls = c.calls[:0]
	return calls
}

// View executes a read-only internal call outside any transaction, with gas
// charged to a throwaway meter. It is used by tests and examples to inspect
// contract state without paying (or recording) gas.
func (c *Chain) View(to Address, method string, args any) (any, error) {
	ctx := &Ctx{chain: c, contract: to, origin: "viewer", caller: "viewer", meter: &gas.Meter{}}
	return ctx.dispatch(to, method, args)
}

// StorageSize returns the number of storage slots held by a contract,
// un-metered (test/diagnostic helper).
func (c *Chain) StorageSize(addr Address) int { return len(c.storage[addr]) }
