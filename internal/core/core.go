// Package core implements GRuB itself: the hybrid on-chain/off-chain KV
// store of the paper, wired out of the substrate packages.
//
// The moving parts mirror Figure 4a:
//
//   - StorageManager: the on-chain storage-manager smart contract
//     (Listing 2) holding the ADS digest and the replicated records, serving
//     gGet, verifying deliver proofs and applying epoch update batches
//     (contract.go).
//   - DO: the trusted data owner. Its control plane monitors the workload
//     (local writes plus the chain's gGet call log), runs an
//     internal/policy decision maker, and actuates replication-state
//     transitions; its data plane batches writes per epoch into update
//     transactions (gPuts). It owns the feed's authenticated record set
//     (internal/ads) and signs its digest on-chain (do.go).
//   - SPNode: the untrusted storage provider. It watches the chain's event
//     log for request events and answers them with deliver transactions
//     carrying Merkle proofs (spnode.go).
//   - Feed: the top-level assembly plus the workload driver. It is the
//     object every experiment, shard worker and gateway manipulates.
//
// The package also hosts two cross-layer vocabularies:
//
//   - the batch-op layer (ops.go): Op/OpResult/ApplyOps, the wire-level
//     operation format shared by the gateway, the shard engine, the load
//     drivers and sequential replays, and
//   - the snapshot layer (snapshot.go): FeedSnapshot captures a feed's
//     complete state at a quiescent point and RestoreFeed rebuilds a
//     behaviorally identical feed from it, which is what makes the gateway's
//     durability path (internal/shard persistence) exact rather than
//     approximate.
//
// # Why the DO and the SP may share one record set
//
// DO and SP share one persistent record set per feed: the DO is its only
// writer, the SP only reads it to build proofs. In the protocol an honest
// SP's copy equals the DO's by construction (the DO ships it every gPuts
// batch), so a second in-process copy would re-hash every write to protect
// nothing. Sharing gives the SP no power a real one lacks: it reads what
// the DO would have sent it, and it has no path to write the set. What the
// SP reads is never trusted either. The security argument lives at one
// boundary: the manager contract verifies every deliver against the digest
// the DO signed, and a dishonest SP is modelled where it acts, on the
// deliver it submits or withholds (SPNode.Tamper / Drop). Durability is the
// shard WAL's job (internal/shard), not the SP's.
//
// The contract's check reads one more piece of DO state: deliver verifies
// the delivered membership proof with the record set's VerifyMember, which
// reads back from the set's own nodes the hashes the DO's seal computed. The
// check stays the one merkle.Verify makes, for three reasons:
//
//   - Only sealed nodes are consulted. A sealed node's cached leaf, half and
//     hash are the hashes of its record and children as they stand, and
//     Root's cached count step is the hash of its inputs. No step of a dirty
//     node, whose cache may be stale, is read.
//   - An output is used only when its preimage equals the step's, bit for
//     bit (for the leaf, when the record equals the node's), and is then what
//     HashInner would return. A forged step, and every step after it, is
//     hashed, so the fold ends where merkle.Verify's would.
//   - Which node answers never matters. The SP chooses the proof, and so
//     which nodes its steps are paired with, but never what a node holds.
//
// Gas is metered per proof step whether or not it is hashed, so Gas, roots,
// proofs and wire bytes are what plain hashing gives: the check saves the
// simulator's CPU and models nothing. VerifyMember writes nothing, and
// captures carry no cached count step, so read views are untouched by it.
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
//
// Everything in core is single-writer by design: a Feed must be driven from
// one goroutine (the simulation is deterministic, which is what makes both
// the Gas accounting and crash recovery exactly reproducible).
//
// A protocol transaction and its arguments are feed-owned and recycled once
// executed (recycle.go): the DU read, the SP's deliver and the DO's update
// and promotion each come from a slot that is handed out again only after
// the chain has executed its transaction, and their arguments are passed by
// pointer into that slot. The gGet arguments the call trace records stay
// valid until the DO's monitor takes the trace. A round trip therefore
// allocates only the values and proofs it hands out.
package core
