package main

// sizes is the one table every workload's dimensions come from. Fields
// ending in PerSec are work per nominal second of measured window on the
// 2-core reference box: the run's -seconds multiplies them, so the work a
// run does is a pure function of (workload, seed, seconds) and never of how
// fast the machine happens to be. Everything else is a fixed dimension.
type sizes struct {
	// Segments is the number of measured equal-work segments (one more,
	// discarded, warms up). MinSegmentRequests is the floor below which a
	// run refuses to report; SetupRepeats is how often set-up is repeated
	// for the setup_s median.
	Segments, MinSegmentRequests, SetupRepeats int
	// TraceSegments replaces Segments in the traced run's short workload
	// pass (odd segments traced, even ones not).
	TraceSegments int
	// GasSegments is how many leading segments (warm-up included) form the
	// Gas sample: the prefix of every op stream that is also replayed under
	// both static placements for gas_vs_best_static. Gas needs no long run
	// to be exact, and the static replays cost as much as the timed one.
	GasSegments int

	// write_http_durable: YCSB-A batches over loopback into a durable
	// gateway.
	WriteRecords, WriteValueBytes, WriteBatchOps, WriteEpochOps int
	WriteBatchesPerClientPerSec                                 int
	WriteSnapshotEvery                                          int

	// verified_read_http: proof-carrying reads from a sharded in-memory
	// gateway.
	ReadRecords, ReadShards, ReadEpochOps, ReadWriteBatchOps, ReadRangeKeys int
	ReadRequestsPerClientPerSec                                             int

	// paper_replay: three paper traces in 16-op slices, equal slice
	// counts per trace so every segment carries the same mix.
	PaperSliceOps, PaperEthAssets, PaperEthBatch, PaperYcsbRecords int
	PaperSlicesPerTracePerSec                                      int

	// restart_catchup: a logged history replayed by reopen and by a cold
	// follower, once per cycle; RestartCyclesPerSegment cycles make one
	// segment, and the history is sized so that they fill it.
	RestartRecords, RestartShards, RestartBatchOps, RestartEpochOps int
	RestartHistoryBatchesPerSec, RestartCyclesPerSegment            int

	// Unit-cost probes of the traced run repeat this often.
	UnitCalls int
	// LadderReads is how many point reads each rung of the read ladder
	// times; LadderBatchCap bounds the write batches a ladder replays.
	LadderReads, LadderBatchCap int
}

// clients is fixed: the box has two cores and each client owns one feed, so
// per-feed op order, Gas and roots depend only on the seed.
const clients = 2

var fullSizes = sizes{
	Segments: 10, MinSegmentRequests: 1000, SetupRepeats: 5, TraceSegments: 4, GasSegments: 3,

	WriteRecords: 10000, WriteValueBytes: 32, WriteBatchOps: 16, WriteEpochOps: 8,
	WriteBatchesPerClientPerSec: 850, WriteSnapshotEvery: 4096,

	ReadRecords: 50000, ReadShards: 4, ReadEpochOps: 8, ReadWriteBatchOps: 8, ReadRangeKeys: 8,
	ReadRequestsPerClientPerSec: 3800,

	PaperSliceOps: 16, PaperEthAssets: 4096, PaperEthBatch: 10, PaperYcsbRecords: 16384,
	PaperSlicesPerTracePerSec: 620,

	RestartRecords: 10000, RestartShards: 2, RestartBatchOps: 16, RestartEpochOps: 8,
	RestartHistoryBatchesPerSec: 667, RestartCyclesPerSegment: 2,

	UnitCalls: 100000, LadderReads: 2000, LadderBatchCap: 4000,
}

// smokeSizes runs every workload end to end, with every oracle, in about a
// second each; `go test` uses it. The 1000-request floor is waived.
var smokeSizes = sizes{
	Segments: 4, MinSegmentRequests: 8, SetupRepeats: 1, TraceSegments: 2, GasSegments: 2,

	WriteRecords: 256, WriteValueBytes: 32, WriteBatchOps: 16, WriteEpochOps: 8,
	WriteBatchesPerClientPerSec: 60, WriteSnapshotEvery: 64,

	ReadRecords: 512, ReadShards: 4, ReadEpochOps: 8, ReadWriteBatchOps: 8, ReadRangeKeys: 8,
	ReadRequestsPerClientPerSec: 300,

	PaperSliceOps: 16, PaperEthAssets: 128, PaperEthBatch: 10, PaperYcsbRecords: 512,
	PaperSlicesPerTracePerSec: 120,

	RestartRecords: 256, RestartShards: 2, RestartBatchOps: 16, RestartEpochOps: 8,
	RestartHistoryBatchesPerSec: 40, RestartCyclesPerSegment: 2,

	UnitCalls: 2000, LadderReads: 64, LadderBatchCap: 64,
}

// perSegment turns a per-second rate into requests per segment for a window
// of the given nominal length, so 1+Segments segments of equal work fill it.
func (z sizes) perSegment(perSec, seconds int) int {
	n := perSec * seconds / z.Segments
	if n < 1 {
		n = 1
	}
	return n
}

// gasSample is how many of n equally spread batches fall into the Gas
// sample of a run with the given measured segment count.
func (z sizes) gasSample(n, segments int) int {
	return max(1, n*min(z.GasSegments, 1+segments)/(1+segments))
}
