package chain

import (
	"errors"
	"fmt"

	"grub/internal/gas"
	"grub/internal/sim"
)

// State is a serializable snapshot of everything on a chain that influences
// future execution and accounting: the per-contract storage, the gas
// ledgers, the chain position and the clock. Registered handlers are code,
// not state — a restored chain re-registers its contracts the same way a
// fresh one does.
//
// The event log and the internal-call trace are deliberately NOT part of the
// state: they are monitoring streams, handed to their single consumer by
// TakeEvents / TakeCalls and not retained (the buffers behind them are
// reused, never grown by history). Consumers hold no position into
// them, so a restored chain simply starts both empty and there is nothing
// to fix up; core.Feed takes both after every read and every epoch flush,
// so at the quiescent points it snapshots at they are already consumed.
// Nothing in gas accounting reads them.
type State struct {
	Now      sim.Time `json:"now"`
	Height   uint64   `json:"height"`
	TotalGas gas.Gas  `json:"totalGas"`
	TxCount  int      `json:"txCount"`
	// GasByContract is the per-contract attribution ledger behind GasOf.
	GasByContract map[Address]gas.Gas `json:"gasByContract,omitempty"`
	// Storage holds every contract's storage slots verbatim, so slot
	// existence (and with it the insert-vs-update gas distinction) survives
	// the round trip.
	Storage map[Address]map[string][]byte `json:"storage,omitempty"`
}

// ErrNotQuiescent is returned by Snapshot when transactions are still in the
// mempool: a snapshot must capture a point between transactions, never the
// middle of one.
var ErrNotQuiescent = errors.New("chain: mempool not empty")

// ErrNotFresh is returned by Restore when the target chain has already
// executed transactions.
var ErrNotFresh = errors.New("chain: restore target already executed transactions")

// PendingTxs returns the number of transactions waiting in the mempool.
func (c *Chain) PendingTxs() int { return len(c.mempool) }

// Snapshot captures the chain's state at a quiescent point (empty mempool).
// The returned value shares nothing with the chain and is safe to serialize.
func (c *Chain) Snapshot() (State, error) {
	if len(c.mempool) != 0 {
		return State{}, fmt.Errorf("%w: %d pending", ErrNotQuiescent, len(c.mempool))
	}
	st := State{
		Now:           c.clock.Now(),
		Height:        c.height,
		TotalGas:      c.totalGas,
		TxCount:       c.txCount,
		GasByContract: make(map[Address]gas.Gas, len(c.gasByContract)),
		Storage:       make(map[Address]map[string][]byte, len(c.storage)),
	}
	for addr, g := range c.gasByContract {
		st.GasByContract[addr] = *g
	}
	for addr, slots := range c.storage {
		cp := make(map[string][]byte, len(slots))
		for slot, v := range slots {
			cp[slot] = append([]byte(nil), v...)
		}
		st.Storage[addr] = cp
	}
	return st, nil
}

// Restore installs a previously captured state onto a freshly constructed
// chain (same params and schedule as the original; the caller guarantees
// that). Contract handlers registered before or after Restore are kept:
// restore replaces state, not code.
func (c *Chain) Restore(st State) error {
	if c.txCount != 0 || c.height != 0 || len(c.mempool) != 0 {
		return ErrNotFresh
	}
	c.clock.AdvanceTo(st.Now)
	c.height = st.Height
	c.totalGas = st.TotalGas
	c.txCount = st.TxCount
	c.gasByContract = make(map[Address]*gas.Gas, len(st.GasByContract))
	for addr, g := range st.GasByContract {
		*c.ledger(addr) = g
	}
	c.storage = make(map[Address]map[string][]byte, len(st.Storage))
	for addr, slots := range st.Storage {
		cp := make(map[string][]byte, len(slots))
		for slot, v := range slots {
			cp[slot] = append([]byte(nil), v...)
		}
		c.storage[addr] = cp
	}
	return nil
}
