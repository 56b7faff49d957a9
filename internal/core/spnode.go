package core

import (
	"fmt"

	"grub/internal/ads"
	"grub/internal/chain"
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

	// Tamper, when non-nil, may rewrite a deliver before submission
	// (security tests model a forging/replaying SP with it). It replaces
	// fields rather than writing through them: the record's value bytes
	// are the shared set's own.
	Tamper func(*DeliverArgs)
	// Drop, when non-nil, suppresses responses for chosen request IDs
	// (models an omitting SP).
	Drop func(RequestEvent) bool
}

// NewSPNode builds a storage provider node answering for the given manager
// out of set — the DO's own record set, which the SP only ever reads (Get,
// ProveKey, ProveAbsent). The package doc says why sharing it is sound: what
// the SP reads is never trusted, only what the contract verifies.
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
		if req, ok := ev.Data.(RequestEvent); ok {
			s.pending = append(s.pending, req)
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

func (s *SPNode) answer(req RequestEvent) error {
	if _, ok := s.set.Get(req.Key); !ok {
		proof, err := s.set.ProveAbsent(req.Key)
		if err != nil {
			return fmt.Errorf("core: absence proof for %q: %w", req.Key, err)
		}
		args := DeliverAbsentArgs{ID: req.ID, Key: req.Key, Proof: proof, Callback: req.Callback}
		s.chain.Submit(&chain.Tx{
			From:         s.addr,
			To:           s.manager,
			Method:       "deliverAbsent",
			Args:         args,
			PayloadBytes: 8 + len(req.Key) + proof.Size(),
		})
		return nil
	}
	rec, proof, err := s.set.ProveKey(req.Key)
	if err != nil {
		return fmt.Errorf("core: proof for %q: %w", req.Key, err)
	}
	args := DeliverArgs{ID: req.ID, Record: rec, Proof: proof, Callback: req.Callback}
	if s.Tamper != nil {
		args = s.tamper(args)
	}
	s.chain.Submit(&chain.Tx{
		From:         s.addr,
		To:           s.manager,
		Method:       "deliver",
		Args:         args,
		PayloadBytes: DeliverPayloadSize(args.Record, args.Proof),
	})
	return nil
}

// tamper applies the Tamper hook to a copy of args, so that only a tampered
// deliver's arguments escape to the heap before they are boxed into the
// transaction.
func (s *SPNode) tamper(args DeliverArgs) DeliverArgs {
	s.Tamper(&args)
	return args
}
