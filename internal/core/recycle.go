package core

import "grub/internal/chain"

// txSlot is one protocol transaction in party-owned storage. A party embeds
// it in a slot struct next to the arguments the transaction points into, so
// submitting the transaction allocates neither the Tx nor its boxed
// arguments.
type txSlot struct {
	tx chain.Tx
	// live is set by the first submit: until then the slot is free.
	live bool
}

func (s *txSlot) slot() *txSlot { return s }

// submit stores tx in the slot, places it in c's mempool and returns it. The
// returned transaction is valid until the slot is handed out again, which is
// not before the chain has executed it.
func (s *txSlot) submit(c *chain.Chain, tx chain.Tx) *chain.Tx {
	s.tx, s.live = tx, true
	c.Submit(&s.tx)
	return &s.tx
}

// recycler hands out slots of type S, a struct embedding txSlot. A slot is
// handed out again only once its transaction has executed: on a timed chain
// a feed submits several transactions before one mine, and a transaction
// still in the mempool, or the arguments it points to, is never rewritten.
// The caller fills a slot and submits it before asking for the next one;
// a slot it leaves unsubmitted stays free. A feed runs on one goroutine, so
// the recycler needs no lock and hands out slots in no particular order.
type recycler[S any, P interface {
	*S
	slot() *txSlot
}] struct {
	slots []P
}

// get returns a free slot, allocating one when every slot is in flight.
func (r *recycler[S, P]) get() P {
	for _, s := range r.slots {
		if ts := s.slot(); !ts.live || ts.tx.Executed() {
			return s
		}
	}
	s := P(new(S))
	r.slots = append(r.slots, s)
	return s
}
