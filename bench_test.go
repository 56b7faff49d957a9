// Root-level benchmarks: one sub-benchmark per table and figure of the
// paper's evaluation, taken from bench.Registry. Each runs its experiment
// once per iteration at a reduced scale (the full-scale runs are produced by
// cmd/grubbench) with its report discarded; the timings say how long a
// reproduction takes, the Gas it computes is what cmd/grubbench prints.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// or regenerate a single figure at full scale with:
//
//	go run ./cmd/grubbench -run fig7
package grub_test

import (
	"io"
	"testing"

	"grub/internal/bench"
)

// benchScale keeps a full `go test -bench=.` pass tractable on one core
// while preserving every experiment's shape. cmd/grubbench defaults to 1.0.
const benchScale = 0.12

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Registry {
		b.Run(e.ID, func(b *testing.B) {
			cfg := bench.Config{W: io.Discard, Scale: benchScale, Seed: 42}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
			}
		})
	}
}
