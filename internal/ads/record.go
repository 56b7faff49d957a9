// Package ads implements GRuB's authenticated data structure layer: an
// authenticated set of KV records carrying replication-state bits, following
// §3.3 and Appendix B of the paper.
//
// Records are ordered by (state, key): the NR (not-replicated) group comes
// first, then the R (replicated) group, each sorted by key — the layout of
// Figure 4b. A Merkle tree over that layout authenticates point lookups
// (deliver proofs on the read path), contiguous ranges (scan completeness)
// and non-membership (adjacent-pair proofs).
//
// Both the data owner (DO) and the storage provider (SP) maintain a Set; the
// DO's root hash is the on-chain digest against which the storage-manager
// contract verifies every deliver.
package ads

import (
	"encoding/binary"
	"fmt"

	"grub/internal/merkle"
)

// State is a record's replication state. The paper prefixes each key with
// this bit; NR orders before R.
type State byte

const (
	// NR marks a record stored only off-chain (not replicated).
	NR State = 0
	// R marks a record replicated into smart-contract storage.
	R State = 1
)

// String returns the paper's notation for the state.
func (s State) String() string {
	if s == R {
		return "R"
	}
	return "NR"
}

// Record is a KV record with its replication state. The JSON tags are the
// wire shape used by the gateway's authenticated read API (Value travels
// base64-encoded, per encoding/json).
type Record struct {
	Key   string `json:"key"`
	State State  `json:"state"`
	Value []byte `json:"value,omitempty"`
}

// Size returns the byte size used for transaction-payload Gas accounting:
// the encoded record.
func (r Record) Size() int { return len(r.Key) + len(r.Value) + 6 }

// Encode serializes the record for leaf hashing:
//
//	state (1B) | varint(len key) | key | value
func (r Record) Encode() []byte {
	return r.appendEncoding(make([]byte, 0, r.Size()))
}

func (r Record) appendEncoding(buf []byte) []byte {
	buf = append(buf, byte(r.State))
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = append(buf, r.Value...)
	return buf
}

// Leaf returns the record's Merkle leaf hash: merkle.HashLeaf(r.Encode()).
// A typical record's encoding is assembled on the stack.
func (r Record) Leaf() merkle.Hash {
	var stack [128]byte
	return merkle.HashLeaf(r.appendEncoding(stack[:0]))
}

// DecodeRecord parses an encoded record.
func DecodeRecord(buf []byte) (Record, error) {
	if len(buf) < 2 {
		return Record{}, fmt.Errorf("ads: record too short")
	}
	st := State(buf[0])
	if st != NR && st != R {
		return Record{}, fmt.Errorf("ads: bad state byte %d", buf[0])
	}
	klen, n := binary.Uvarint(buf[1:])
	if n <= 0 || 1+n+int(klen) > len(buf) {
		return Record{}, fmt.Errorf("ads: corrupt record key")
	}
	key := string(buf[1+n : 1+n+int(klen)])
	val := append([]byte(nil), buf[1+n+int(klen):]...)
	return Record{Key: key, State: st, Value: val}, nil
}

// less orders records by (state, key), the Figure 4b layout.
func less(aState State, aKey string, bState State, bKey string) bool {
	if aState != bState {
		return aState < bState
	}
	return aKey < bKey
}
