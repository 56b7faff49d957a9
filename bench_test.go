// Root-level benchmarks: one testing.B target per table and figure of the
// paper's evaluation. Each benchmark runs its experiment once per iteration
// at a reduced scale (the full-scale runs are produced by cmd/grubbench) and
// reports feed Gas per workload operation as a custom metric, which is the
// quantity every figure plots.
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

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Config{W: io.Discard, Scale: benchScale, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { runExperiment(b, "fig8b") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12a(b *testing.B) { runExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { runExperiment(b, "fig12b") }
func BenchmarkFig13a(b *testing.B) { runExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { runExperiment(b, "fig13b") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkGatewayExperiment runs the serving-layer experiment: ops/sec and
// gas/op through the full HTTP gateway under concurrent clients.
func BenchmarkGatewayExperiment(b *testing.B) { runExperiment(b, "gateway") }

// BenchmarkShardExperiment runs the scatter-gather scaling experiment.
func BenchmarkShardExperiment(b *testing.B) { runExperiment(b, "shard") }

// BenchmarkPersistExperiment runs the durability experiment: WAL on/off
// throughput and recovery time vs log length.
func BenchmarkPersistExperiment(b *testing.B) { runExperiment(b, "persist") }

// BenchmarkReplExperiment runs the replication experiment: follower
// catch-up throughput and verified-read scale-out across followers.
func BenchmarkReplExperiment(b *testing.B) { runExperiment(b, "repl") }

// BenchmarkPublishExperiment runs the view-publication scaling microbench:
// per-batch publish cost at 1k vs 100k records and their ratio.
func BenchmarkPublishExperiment(b *testing.B) { runExperiment(b, "publish") }

// BenchmarkLoadReportExperiment runs the load-accounting microbench: per-batch
// metering tax, heartbeat digest build cost and wire size, and /cluster/load
// latency with ~1k metered feeds.
func BenchmarkLoadReportExperiment(b *testing.B) { runExperiment(b, "loadreport") }
