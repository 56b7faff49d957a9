// Package gas implements the Ethereum Gas cost schedule used throughout the
// GRuB reproduction. The prices follow Table 2 of the paper (which in turn
// follows the Ethereum yellow paper): transactions and storage writes dominate,
// storage reads and hashing are comparatively cheap.
//
// All sizes are expressed in bytes at the API boundary and rounded up to
// 32-byte EVM words internally, exactly as the paper's cost formulas do.
package gas

// Gas is an amount of Ethereum gas.
type Gas uint64

// WordSize is the EVM word size in bytes. All storage and hashing costs are
// charged per 32-byte word.
const WordSize = 32

// Schedule holds the unit prices for every chargeable operation. A Schedule is
// immutable after construction; use DefaultSchedule for the paper's Table 2
// prices.
type Schedule struct {
	// TxBase is the flat cost of any transaction (21000 in Table 2).
	TxBase Gas
	// TxPerWord is the calldata cost per 32-byte word carried by a
	// transaction (2176 in Table 2, valid for payloads under 1000 words).
	TxPerWord Gas
	// SStoreInsert is the cost per word of writing a storage slot that was
	// previously zero (20000 in Table 2).
	SStoreInsert Gas
	// SStoreUpdate is the cost per word of overwriting a non-zero storage
	// slot (5000 in Table 2).
	SStoreUpdate Gas
	// SStoreClear is the cost per word of deleting a storage slot. Table 2
	// does not price deletion separately; we charge the update price and,
	// like the paper, ignore refunds.
	SStoreClear Gas
	// SLoad is the cost per word of reading contract storage (200 in
	// Table 2).
	SLoad Gas
	// HashBase and HashPerWord price a Keccak-256 invocation (30 + 6/word
	// in Table 2).
	HashBase    Gas
	HashPerWord Gas
	// LogBase, LogPerTopic and LogPerByte price LOG opcodes used by the
	// read path's request events. Table 2 omits them; these are the
	// mainnet prices.
	LogBase     Gas
	LogPerTopic Gas
	LogPerByte  Gas
	// CallBase is a small flat overhead per contract (internal) call,
	// approximating the CALL opcode price.
	CallBase Gas
}

// DefaultSchedule returns the schedule from Table 2 of the paper, extended
// with mainnet LOG prices for the event-driven read path.
func DefaultSchedule() Schedule {
	return Schedule{
		TxBase:       21000,
		TxPerWord:    2176,
		SStoreInsert: 20000,
		SStoreUpdate: 5000,
		SStoreClear:  5000,
		SLoad:        200,
		HashBase:     30,
		HashPerWord:  6,
		LogBase:      375,
		LogPerTopic:  375,
		LogPerByte:   8,
		CallBase:     700,
	}
}

// Words converts a byte length to a number of 32-byte words, rounding up.
func Words(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + WordSize - 1) / WordSize
}

// Tx returns the cost of a transaction carrying payloadBytes bytes of
// calldata: 21000 + 2176*ceil(payloadBytes/32).
func (s Schedule) Tx(payloadBytes int) Gas {
	return s.TxBase + s.TxPerWord*Gas(Words(payloadBytes))
}

// StoreInsert returns the cost of inserting valueBytes bytes into fresh
// storage slots.
func (s Schedule) StoreInsert(valueBytes int) Gas {
	return s.SStoreInsert * Gas(Words(valueBytes))
}

// StoreUpdate returns the cost of overwriting valueBytes bytes of existing
// storage.
func (s Schedule) StoreUpdate(valueBytes int) Gas {
	return s.SStoreUpdate * Gas(Words(valueBytes))
}

// StoreClear returns the cost of deleting valueBytes bytes of storage.
func (s Schedule) StoreClear(valueBytes int) Gas {
	return s.SStoreClear * Gas(Words(valueBytes))
}

// Load returns the cost of reading valueBytes bytes from storage.
func (s Schedule) Load(valueBytes int) Gas {
	return s.SLoad * Gas(Words(valueBytes))
}

// Hash returns the cost of hashing dataBytes bytes.
func (s Schedule) Hash(dataBytes int) Gas {
	return s.HashBase + s.HashPerWord*Gas(Words(dataBytes))
}

// Log returns the cost of emitting an event with the given topic count and
// data payload size.
func (s Schedule) Log(topics, dataBytes int) Gas {
	return s.LogBase + s.LogPerTopic*Gas(topics) + s.LogPerByte*Gas(dataBytes)
}

// ReplicationK returns Equation 1's K = Cupdate / Cread_off: the number of
// consecutive reads at which replicating a record on-chain pays for itself.
// Cupdate is the per-word storage-update price and Cread_off the per-word
// cost of moving a word on-chain inside a transaction.
func (s Schedule) ReplicationK() float64 {
	return float64(s.SStoreUpdate) / float64(s.TxPerWord)
}

// Meter accumulates gas across a sequence of operations. The zero value is
// ready to use. Meter is not safe for concurrent use; the chain serializes
// execution.
type Meter struct {
	used Gas
}

// Charge adds g to the meter.
func (m *Meter) Charge(g Gas) { m.used += g }

// Used reports the total gas charged so far.
func (m *Meter) Used() Gas { return m.used }

// Reset zeroes the meter and returns the amount that had accumulated.
func (m *Meter) Reset() Gas {
	u := m.used
	m.used = 0
	return u
}
