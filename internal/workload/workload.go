// Package workload builds the operation traces driven through GRuB in the
// paper's evaluation: fixed read-write-ratio microbenchmark sequences (§2.3,
// §5.1), a synthetic regeneration of the 5-day ethPriceOracle trace from its
// published distribution (Table 1, Figure 2), and a synthetic regeneration of
// the BtcRelay block-read trace (Table 6, Figure 16).
package workload

import (
	"grub/internal/sim"
)

// Op is one workload operation. Write carries the value to feed; reads only
// name a key. Scan requests expand at the feed layer.
type Op struct {
	Write bool
	Key   string
	Value []byte
	// ScanLen > 0 marks a range read of ScanLen consecutive keys starting
	// at Key (YCSB workload E).
	ScanLen int
}

// Read returns a read operation.
func Read(key string) Op { return Op{Key: key} }

// Write returns a write operation.
func Write(key string, value []byte) Op { return Op{Write: true, Key: key, Value: value} }

// Scan returns a scan operation.
func Scan(key string, n int) Op { return Op{Key: key, ScanLen: n} }

// Stats summarizes a trace.
type Stats struct {
	Ops    int
	Reads  int
	Writes int
	Scans  int
	Keys   int
}

// Describe computes summary statistics for a trace.
func Describe(trace []Op) Stats {
	s := Stats{Ops: len(trace)}
	keys := make(map[string]struct{})
	for _, op := range trace {
		keys[op.Key] = struct{}{}
		switch {
		case op.Write:
			s.Writes++
		case op.ScanLen > 0:
			s.Scans++
		default:
			s.Reads++
		}
	}
	s.Keys = len(keys)
	return s
}

// Ratio generates the §2.3 microbenchmark sequence: repeated rounds of
// `writes` writes followed by `reads` reads on a single key, with values of
// valueBytes. rounds controls length. The ratio reads/writes is the X axis
// of Figures 3 and 7.
func Ratio(key string, writes, reads, rounds, valueBytes int, seed uint64) []Op {
	r := sim.NewRand(seed)
	var trace []Op
	for i := 0; i < rounds; i++ {
		for w := 0; w < writes; w++ {
			trace = append(trace, Write(key, randomValue(r, valueBytes)))
		}
		for q := 0; q < reads; q++ {
			trace = append(trace, Read(key))
		}
	}
	return trace
}

// RatioFraction generates a rounds-long trace approximating a fractional
// read-to-write ratio (e.g. 0.125 = one read per 8 writes) on a single key.
func RatioFraction(key string, readToWrite float64, totalOps, valueBytes int, seed uint64) []Op {
	r := sim.NewRand(seed)
	var trace []Op
	// Emit in repeating blocks of w writes and q reads with q/w ~ ratio.
	w, q := 1, 0
	switch {
	case readToWrite <= 0:
		w, q = 1, 0
	case readToWrite < 1:
		w = int(1/readToWrite + 0.5)
		q = 1
	default:
		w = 1
		q = int(readToWrite + 0.5)
	}
	for len(trace) < totalOps {
		for i := 0; i < w && len(trace) < totalOps; i++ {
			trace = append(trace, Write(key, randomValue(r, valueBytes)))
		}
		for i := 0; i < q && len(trace) < totalOps; i++ {
			trace = append(trace, Read(key))
		}
	}
	return trace
}

func randomValue(r *sim.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(r.Uint64())
	}
	return v
}
