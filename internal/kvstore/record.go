package kvstore

import (
	"encoding/binary"
	"fmt"
)

// Typed record codec: a small framing for values stored by durability
// layers on top of the engine (the shard persister keeps a feed's op log
// and its state snapshots in one DB). Each value carries a kind tag and a
// sequence number so readers can dispatch without sniffing payloads:
//
//	kind (1B) | seq (8B, big-endian) | payload
//
// The codec is deliberately independent of what the payload means.

// RecordKind tags a typed record value. Kinds 1, 2 and 4 stay unassigned:
// stores written by earlier builds may hold them (an op batch as JSON, a
// feed snapshot without an anchor, and a shard image as JSON), and shard
// recovery refuses such a record, naming its kind, rather than read it as
// something else.
type RecordKind uint8

const (
	// RecordOpsWire is an applied op batch in a feed's durable log, in the
	// binary ops encoding (core.AppendOps).
	RecordOpsWire RecordKind = 3
	// RecordImage is a shard image in the binary image encoding
	// (repl.AppendSnapshot): the feed state, its counters and the anchor it
	// must hash to. It supersedes every log record with seq at or below its
	// own.
	RecordImage RecordKind = 5
)

// recordHeaderLen is the encoded size of the kind tag and sequence number.
const recordHeaderLen = 9

// AppendRecordHeader appends a typed record's kind tag and sequence number;
// the caller appends the payload behind them.
func AppendRecordHeader(b []byte, kind RecordKind, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(append(b, byte(kind)), seq)
}

// DecodeTypedRecord splits a typed record value into its parts. The payload
// aliases data.
func DecodeTypedRecord(data []byte) (kind RecordKind, seq uint64, payload []byte, err error) {
	if len(data) < recordHeaderLen {
		return 0, 0, nil, fmt.Errorf("kvstore: typed record too short (%d bytes)", len(data))
	}
	if data[0] == 0 {
		return 0, 0, nil, fmt.Errorf("kvstore: typed record kind 0")
	}
	return RecordKind(data[0]), binary.BigEndian.Uint64(data[1:recordHeaderLen]), data[recordHeaderLen:], nil
}
