package core

import (
	"fmt"
	"slices"

	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
)

// SPNode is the storage provider: the watchdog daemon of the read path
// (paper §3.3). It consumes the chain's event stream; every request event it
// finds is answered with a deliver transaction carrying the record and its
// Merkle proof (or an absence proof).
//
// The SP is untrusted in the protocol — the manager contract verifies every
// deliver — but the simulation drives an honest SP by default. Adversarial
// behaviours are injected by the security tests through the Tamper hook.
type SPNode struct {
	addr    chain.Address
	manager chain.Address
	chain   *chain.Chain
	set     *ads.Set

	// pending holds requests seen but not yet answered (e.g. suppressed
	// by Drop); they are retried on every Watch.
	pending []RequestEvent
	// slots recycles the delivers: a slot is reused once its deliver has
	// executed.
	slots recycler[deliverSlot, *deliverSlot]

	// Tamper, when non-nil, may rewrite a deliver before submission
	// (security tests model a forging/replaying SP with it). It replaces
	// fields rather than writing through them: the record's value bytes
	// are the shared set's own.
	Tamper func(*DeliverArgs)
	// Drop, when non-nil, suppresses responses for chosen request IDs
	// (models an omitting SP).
	Drop func(RequestEvent) bool
}

// deliverSlot is one deliver in SP-owned storage: the transaction, either
// kind of arguments and the membership proof the arguments point to.
type deliverSlot struct {
	txSlot
	deliver DeliverArgs
	absent  DeliverAbsentArgs
	proof   merkle.Proof
}

// NewSPNode builds a storage provider node answering for the given manager
// out of set — the DO's own record set, which the SP only ever reads
// (ProveKeyAt, ProveAbsent). The package doc says why sharing it is sound:
// what the SP reads is never trusted, only what the contract verifies.
func NewSPNode(c *chain.Chain, set *ads.Set, manager, addr chain.Address) *SPNode {
	return &SPNode{addr: addr, manager: manager, chain: c, set: set}
}

// Watch takes the chain events emitted since the last Watch, queues the
// requests among them and submits deliver transactions. Requests suppressed
// by Drop stay pending and are retried on the next Watch. It returns the
// number of delivers submitted; the caller mines afterwards.
func (s *SPNode) Watch() (int, error) {
	for _, ev := range s.chain.TakeEvents() {
		if ev.Contract != s.manager || ev.Name != "request" {
			continue
		}
		if req, ok := ev.Data.(*RequestEvent); ok {
			s.pending = append(s.pending, *req)
		}
	}
	submitted := 0
	still := s.pending[:0]
	var firstErr error
	for _, req := range s.pending {
		if firstErr != nil || (s.Drop != nil && s.Drop(req)) {
			still = append(still, req)
			continue
		}
		if err := s.answer(req); err != nil {
			firstErr = err
			still = append(still, req)
			continue
		}
		submitted++
	}
	clear(s.pending[len(still):])
	s.pending = still
	return submitted, firstErr
}

// answer proves req's key present — one descent per state group, into the
// slot's proof buffer — or, on a miss, absent, and submits the deliver from a
// recycled slot.
func (s *SPNode) answer(req RequestEvent) error {
	sl := s.slots.get()
	rec, ok := s.set.ProveKeyAt(req.Key, s.set.CountLeaf(), &sl.proof)
	if !ok {
		proof, err := s.set.ProveAbsent(req.Key)
		if err != nil {
			return fmt.Errorf("core: absence proof for %q: %w", req.Key, err)
		}
		sl.absent = DeliverAbsentArgs{ID: req.ID, Key: req.Key, Proof: proof, Callback: req.Callback}
		sl.submit(s.chain, chain.Tx{
			From:         s.addr,
			To:           s.manager,
			Method:       "deliverAbsent",
			Args:         &sl.absent,
			PayloadBytes: 8 + len(req.Key) + proof.Size(),
		})
		return nil
	}
	args := &sl.deliver
	*args = DeliverArgs{ID: req.ID, Record: rec, Proof: &sl.proof, Callback: req.Callback}
	if s.Tamper != nil {
		args = s.tamper(args)
	}
	sl.submit(s.chain, chain.Tx{
		From:         s.addr,
		To:           s.manager,
		Method:       "deliver",
		Args:         args,
		PayloadBytes: DeliverPayloadSize(args.Record, args.Proof),
	})
	return nil
}

// tamper applies the Tamper hook to an owned copy of args, proof included:
// a hook may keep what it is handed (a replaying SP does), and the slot's
// arguments and proof buffer are rewritten by a later answer.
func (s *SPNode) tamper(args *DeliverArgs) *DeliverArgs {
	own, proof := *args, *args.Proof
	proof.Path = slices.Clone(proof.Path)
	own.Proof = &proof
	s.Tamper(&own)
	return &own
}
