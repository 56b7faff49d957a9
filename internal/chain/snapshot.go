package chain

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"

	"grub/internal/gas"
	"grub/internal/sim"
	"grub/internal/wire"
)

// ErrNotQuiescent is returned by AppendState when transactions are still in
// the mempool: a snapshot must capture a point between transactions, never
// the middle of one.
var ErrNotQuiescent = errors.New("chain: mempool not empty")

// ErrNotFresh is returned by ReadState when the target chain has already
// executed transactions.
var ErrNotFresh = errors.New("chain: restore target already executed transactions")

// AppendState appends the chain's state at a quiescent point (empty mempool):
// everything on it that influences future execution and accounting — the
// clock, height, total Gas, transaction count, Gas ledger and every storage
// slot verbatim, so slot existence (and with it the insert-vs-update gas
// distinction) survives the round trip — with each map in key order. Handlers
// are code, not state: a restored chain re-registers its contracts the way a
// fresh one does. The event log and call trace are not state either: their
// single consumers take them (TakeEvents, TakeCalls) and hold no position
// into them, so a restored chain starts both empty.
func (c *Chain) AppendState(b []byte) ([]byte, error) {
	if len(c.mempool) != 0 {
		return b, fmt.Errorf("%w: %d pending", ErrNotQuiescent, len(c.mempool))
	}
	b = wire.AppendUint(b, uint64(c.clock.Now()))
	b = wire.AppendInt(wire.AppendUint(wire.AppendUint(b, c.height), uint64(c.totalGas)), c.txCount)
	b = wire.AppendInt(b, len(c.gasByContract))
	for _, addr := range slices.Sorted(maps.Keys(c.gasByContract)) {
		b = wire.AppendUint(wire.AppendString(b, string(addr)), uint64(*c.gasByContract[addr]))
	}
	b = wire.AppendInt(b, len(c.storage))
	for _, addr := range slices.Sorted(maps.Keys(c.storage)) {
		slots := c.storage[addr]
		b = wire.AppendInt(wire.AppendString(b, string(addr)), len(slots))
		for _, slot := range slices.Sorted(maps.Keys(slots)) {
			b = wire.AppendBytes(wire.AppendString(b, slot), slots[slot])
		}
	}
	return b, nil
}

// ReadState installs a state written by AppendState onto a freshly
// constructed chain (same params and schedule as the original; the caller
// guarantees that). Contract handlers registered before or after it are
// kept: restore replaces state, not code. Decode failures are recorded on r;
// the chain is then unusable.
func (c *Chain) ReadState(r *wire.Reader) error {
	if c.txCount != 0 || c.height != 0 || len(c.mempool) != 0 {
		return ErrNotFresh
	}
	now := sim.Time(r.Uint())
	c.height, c.totalGas, c.txCount = r.Uint(), gas.Gas(r.Uint()), r.Int()
	for n := r.Count(2); n > 0; n-- {
		g := c.ledger(Address(r.OwnStr()))
		*g = gas.Gas(r.Uint())
	}
	for n := r.Count(2); n > 0; n-- {
		addr, m := Address(r.OwnStr()), r.Count(2)
		slots := make(map[string][]byte, m)
		for ; m > 0; m-- {
			slot := r.OwnStr()
			slots[slot] = bytes.Clone(r.Bytes(r.Int()))
		}
		c.storage[addr] = slots
	}
	if now < c.clock.Now() {
		r.Fail("clock %d before the chain's %d", now, c.clock.Now())
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.clock.AdvanceTo(now)
	return nil
}
