// Package core assembles a complete GRuB deployment on a simulated chain:
// the storage-manager contract (contract.go), the trusted data owner with
// its workload monitor, decision policy and epoch-batched write path
// (do.go), and the storage-provider watchdog answering request events with
// authenticated delivers (spnode.go). Feed ties the three parties together
// and drives workload traces through them; it is the object every
// experiment, shard worker and gateway manipulates.
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
