// Package core implements GRuB itself: the hybrid on-chain/off-chain KV
// store of the paper, wired out of the substrate packages.
//
// The moving parts mirror Figure 4a:
//
//   - StorageManager: the on-chain storage-manager smart contract
//     (Listing 2) holding the ADS digest and the replicated records, serving
//     gGet, verifying deliver proofs and applying epoch update batches.
//   - DO: the trusted data owner. Its control plane monitors the workload
//     (local writes plus the chain's gGet call log), runs an
//     internal/policy decision maker, and actuates replication-state
//     transitions; its data plane batches writes per epoch into update
//     transactions (gPuts). It owns the feed's authenticated record set
//     (internal/ads) and signs its digest on-chain.
//   - SPNode: the untrusted storage provider. It watches the chain's event
//     log for request events and answers them with deliver transactions
//     carrying Merkle proofs.
//   - Feed: the top-level assembly plus the workload driver used by every
//     experiment.
//
// DO and SP share one persistent record set per feed: the DO is its only
// writer, the SP only reads it to build proofs. In the protocol an honest
// SP's copy equals the DO's by construction (the DO ships it every gPuts
// batch), so a second in-process copy would re-hash every write to protect
// nothing. The security argument lives at one boundary — the manager
// contract verifies every deliver against the digest the DO signed — and a
// dishonest SP is modelled where it acts: on the deliver it submits or
// withholds (SPNode.Tamper / Drop). Durability is the shard WAL's job
// (internal/shard), not the SP's.
//
// The chain's event log and call trace are monitoring streams with one
// consumer each (SP watchdog; DO read monitor). They are consumed, not
// retained: the feed takes both after every read and every epoch flush, so
// a long-running feed's memory is its record set, not its history.
//
// All Gas spent by the feed (update and deliver transactions, storage and
// verification inside the manager) is attributed to the manager's address,
// which is how experiments separate feed-layer Gas from application Gas
// (Table 3).
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

// GetArgs is the argument of the manager's gGet method.
type GetArgs struct {
	Key      string
	Callback Callback
}

// CallbackArgs is what a DU callback receives.
type CallbackArgs struct {
	Key   string
	Value []byte
	// Found is false when the feed proved the key absent.
	Found bool
}

// RequestEvent is the EVM-log event emitted when a gGet misses on-chain
// (the watchdog on the SP spins on these).
type RequestEvent struct {
	ID       uint64
	Key      string
	Callback Callback
}

// DeliverArgs is the argument of the manager's deliver method: the record,
// its membership proof against the on-chain digest, and whether the record's
// authenticated state instructs the manager to persist a replica.
type DeliverArgs struct {
	ID       uint64
	Record   ads.Record
	Proof    *merkle.Proof
	Callback Callback
}

// DeliverAbsentArgs answers a request for a key the SP can prove absent.
type DeliverAbsentArgs struct {
	ID       uint64
	Key      string
	Proof    *ads.AbsenceProof
	Callback Callback
}

// UpdateArgs is the argument of the manager's update method: the new digest
// plus the replica writes and evictions of this epoch (paper §3.3, write
// path).
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
