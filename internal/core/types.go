package core

import (
	"grub/internal/ads"
	"grub/internal/chain"
	"grub/internal/merkle"
)

// KV is one key-value pair fed by the DO.
type KV struct {
	Key   string
	Value []byte
}

// Callback names a contract method to receive a gGet result, mirroring the
// callback parameter of Listing 2.
type Callback struct {
	Contract chain.Address
	Method   string
}

// Zero reports whether no callback was requested.
func (c Callback) Zero() bool { return c.Contract == "" }

// GetArgs is the argument of the manager's gGet method, passed by pointer.
// The call trace keeps that pointer until the DO's read monitor takes it, so
// the caller must not rewrite a GetArgs before then (the feed's reader keeps
// them in an arena the monitor resets).
type GetArgs struct {
	Key      string
	Callback Callback
}

// CallbackArgs is what a DU callback receives, by pointer into storage the
// manager reuses: it is valid only while the callback runs, so a DU keeps
// what it needs by copying fields out (Value is the DU's to keep).
type CallbackArgs struct {
	Key   string
	Value []byte
	// Found is false when the feed proved the key absent.
	Found bool
}

// RequestEvent is the EVM-log event emitted when a gGet misses on-chain
// (the watchdog on the SP spins on these). The event's data is a
// *RequestEvent the manager never rewrites.
type RequestEvent struct {
	ID       uint64
	Key      string
	Callback Callback
}

// DeliverArgs is the argument of the manager's deliver method, passed by
// pointer: the record, its membership proof against the on-chain digest, and
// whether the record's authenticated state instructs the manager to persist
// a replica. An honest SP builds it, proof and all, in storage it reuses once
// the deliver has executed.
type DeliverArgs struct {
	ID       uint64
	Record   ads.Record
	Proof    *merkle.Proof
	Callback Callback
}

// DeliverAbsentArgs answers a request for a key the SP can prove absent. It
// is passed by pointer, like DeliverArgs.
type DeliverAbsentArgs struct {
	ID       uint64
	Key      string
	Proof    *ads.AbsenceProof
	Callback Callback
}

// UpdateArgs is the argument of the manager's update method, passed by
// pointer: the new digest plus the replica writes and evictions of this
// epoch (paper §3.3, write path). The DO reuses it, slices and all, once the
// update has executed.
type UpdateArgs struct {
	Digest merkle.Hash
	// Replicas are records to (re)write into contract storage: R-state
	// records updated this epoch and NR->R transitions.
	Replicas []ads.Record
	// Evictions are keys whose replicas are removed (R->NR transitions).
	Evictions []string
	// HasDigest distinguishes a real digest update from a pure-BL2 feed
	// that maintains no ADS.
	HasDigest bool
}

// PayloadSize returns the calldata size charged for an update transaction.
func (u UpdateArgs) PayloadSize() int {
	n := 0
	if u.HasDigest {
		n += merkle.HashSize
	}
	for _, r := range u.Replicas {
		n += r.Size()
	}
	for _, k := range u.Evictions {
		n += len(k) + 4
	}
	return n
}

// DeliverPayloadSize returns the calldata size charged for a deliver
// transaction.
func DeliverPayloadSize(rec ads.Record, p *merkle.Proof) int {
	return 8 + rec.Size() + p.Size()
}
