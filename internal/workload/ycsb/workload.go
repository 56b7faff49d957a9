package ycsb

import (
	"fmt"

	"grub/internal/sim"
	"grub/internal/workload"
)

// OpMix is the proportion of each operation class in a workload. Fields sum
// to 1.
type OpMix struct {
	Read   float64
	Update float64
	Insert float64
	Scan   float64
	// RMW is read-modify-write (workload F): one read followed by one
	// update of the same key.
	RMW float64
}

// Spec defines a YCSB core workload.
type Spec struct {
	Name string
	Mix  OpMix
	// Distribution selects the key chooser: "zipfian", "uniform",
	// "latest".
	Distribution string
	// MaxScanLen bounds scan lengths (uniformly chosen in [1,MaxScanLen]).
	MaxScanLen int
}

// The six YCSB core workloads with their canonical mixes.
var (
	// WorkloadA is update-heavy: 50% reads, 50% updates, zipfian.
	WorkloadA = Spec{Name: "A", Mix: OpMix{Read: 0.5, Update: 0.5}, Distribution: "zipfian"}
	// WorkloadB is read-mostly: 95% reads, 5% updates, zipfian.
	WorkloadB = Spec{Name: "B", Mix: OpMix{Read: 0.95, Update: 0.05}, Distribution: "zipfian"}
	// WorkloadC is read-only, zipfian.
	WorkloadC = Spec{Name: "C", Mix: OpMix{Read: 1}, Distribution: "zipfian"}
	// WorkloadD reads the latest inserts: 95% reads, 5% inserts.
	WorkloadD = Spec{Name: "D", Mix: OpMix{Read: 0.95, Insert: 0.05}, Distribution: "latest"}
	// WorkloadE scans short ranges: 95% scans, 5% inserts, zipfian.
	WorkloadE = Spec{Name: "E", Mix: OpMix{Scan: 0.95, Insert: 0.05}, Distribution: "zipfian", MaxScanLen: 8}
	// WorkloadF is read-modify-write: 50% reads, 50% RMW, zipfian.
	WorkloadF = Spec{Name: "F", Mix: OpMix{Read: 0.5, RMW: 0.5}, Distribution: "zipfian"}
)

// Driver generates operation traces for a Spec against a growing key space.
type Driver struct {
	spec    Spec
	chooser Generator
	scanLen *Uniform
	r       *sim.Rand
	// records is the current item count; inserts extend it.
	records   int
	valueSize int
}

// NewDriver creates a trace generator with recordCount preloaded keys and
// valueSize-byte values.
func NewDriver(spec Spec, recordCount, valueSize int, seed uint64) *Driver {
	r := sim.NewRand(seed)
	d := &Driver{spec: spec, r: r, records: recordCount, valueSize: valueSize}
	switch spec.Distribution {
	case "uniform":
		d.chooser = NewUniform(recordCount, r)
	case "latest":
		d.chooser = NewLatest(recordCount, r)
	default:
		d.chooser = NewScrambledZipfian(recordCount, r)
	}
	maxScan := spec.MaxScanLen
	if maxScan < 1 {
		maxScan = 1
	}
	d.scanLen = NewUniform(maxScan, r)
	return d
}

// Key formats the canonical YCSB key name.
func Key(i int) string { return fmt.Sprintf("user%010d", i) }

// Records returns the current record count (grows with inserts).
func (d *Driver) Records() int { return d.records }

// Preload returns write operations loading the initial record set.
func (d *Driver) Preload() []workload.Op {
	ops := make([]workload.Op, 0, d.records)
	for i := 0; i < d.records; i++ {
		ops = append(ops, workload.Write(Key(i), d.value()))
	}
	return ops
}

func (d *Driver) value() []byte {
	v := make([]byte, d.valueSize)
	for i := range v {
		v[i] = byte(d.r.Uint64())
	}
	return v
}

// Next generates the next operation(s). RMW expands to two ops.
func (d *Driver) Next() []workload.Op {
	p := d.r.Float64()
	mix := d.spec.Mix
	switch {
	case p < mix.Read:
		return []workload.Op{workload.Read(Key(d.chooser.Next()))}
	case p < mix.Read+mix.Update:
		return []workload.Op{workload.Write(Key(d.chooser.Next()), d.value())}
	case p < mix.Read+mix.Update+mix.Insert:
		k := Key(d.records)
		d.records++
		d.chooser.SetItemCount(d.records)
		return []workload.Op{workload.Write(k, d.value())}
	case p < mix.Read+mix.Update+mix.Insert+mix.Scan:
		start := d.chooser.Next()
		n := d.scanLen.Next() + 1
		return []workload.Op{workload.Scan(Key(start), n)}
	default: // RMW
		k := Key(d.chooser.Next())
		return []workload.Op{workload.Read(k), workload.Write(k, d.value())}
	}
}

// Generate produces n logical operations (RMW counts as one logical op but
// yields two trace ops).
func (d *Driver) Generate(n int) []workload.Op {
	var out []workload.Op
	for i := 0; i < n; i++ {
		out = append(out, d.Next()...)
	}
	return out
}

// Phase names one segment of a mixed experiment.
type Phase struct {
	Spec Spec
	Ops  int
}

// Mixed concatenates phases (e.g. A,B,A,B for Figure 9) sharing one key
// space. It returns the preload trace and the per-phase operation traces.
func Mixed(phases []Phase, recordCount, valueSize int, seed uint64) (preload []workload.Op, phaseOps [][]workload.Op) {
	// All phases share the record space; drivers share growth via the
	// max record count handed forward.
	records := recordCount
	for i, ph := range phases {
		d := NewDriver(ph.Spec, records, valueSize, seed+uint64(i)*7919)
		if i == 0 {
			pre := NewDriver(ph.Spec, recordCount, valueSize, seed)
			preload = pre.Preload()
		}
		phaseOps = append(phaseOps, d.Generate(ph.Ops))
		records = d.Records()
	}
	return preload, phaseOps
}
