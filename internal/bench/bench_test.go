package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// smokeScale keeps the smoke tests fast; the real runs happen through the
// root bench_test.go and cmd/grubbench.
const smokeScale = 0.05

func runSmoke(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Config{W: &buf, Scale: smokeScale, Seed: 7}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner, plus
	// the serving-layer gateway benchmark.
	want := []string{
		"table1", "fig2", "fig3", "fig5", "table3", "fig6", "table6",
		"fig16", "fig7", "fig8a", "fig8b", "fig9", "table4", "fig11",
		"fig12a", "fig12b", "fig13a", "fig13b", "fig14", "fig15", "table5",
		"gateway", "shard", "persist", "query", "repl", "cluster",
		"publish", "loadreport",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Registry), len(want))
	}
}

// TestRegistryGolden guards the registry as experiments are added: every
// registered experiment must run at tiny scale without error and emit
// non-empty output through its ByID handle.
func TestRegistryGolden(t *testing.T) {
	for _, exp := range Registry {
		t.Run(exp.ID, func(t *testing.T) {
			e, err := ByID(exp.ID)
			if err != nil {
				t.Fatal(err)
			}
			if e.Title == "" {
				t.Error("experiment has no title")
			}
			var buf bytes.Buffer
			if err := e.Run(Config{W: &buf, Scale: 0.02, Seed: 11}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTable1Smoke(t *testing.T) {
	out := runSmoke(t, "table1")
	if !strings.Contains(out, "70.4") && !strings.Contains(out, "70.3") && !strings.Contains(out, "70.5") {
		t.Errorf("table1 zero-read fraction missing:\n%s", out)
	}
}

func TestFig3Smoke(t *testing.T) {
	out := runSmoke(t, "fig3")
	if !strings.Contains(out, "BL1") || !strings.Contains(out, "256") {
		t.Errorf("fig3 output incomplete:\n%s", out)
	}
}

func TestFig7Smoke(t *testing.T)   { runSmoke(t, "fig7") }
func TestFig8aSmoke(t *testing.T)  { runSmoke(t, "fig8a") }
func TestFig8bSmoke(t *testing.T)  { runSmoke(t, "fig8b") }
func TestFig11Smoke(t *testing.T)  { runSmoke(t, "fig11") }
func TestFig12aSmoke(t *testing.T) { runSmoke(t, "fig12a") }
func TestFig12bSmoke(t *testing.T) { runSmoke(t, "fig12b") }
func TestFig2Smoke(t *testing.T)   { runSmoke(t, "fig2") }
func TestFig16Smoke(t *testing.T)  { runSmoke(t, "table6"); runSmoke(t, "fig16") }

func TestFig5Smoke(t *testing.T) {
	out := runSmoke(t, "fig5")
	if !strings.Contains(out, "aggregate feed Gas") {
		t.Errorf("fig5 aggregates missing:\n%s", out)
	}
}

func TestTable3Smoke(t *testing.T) {
	out := runSmoke(t, "table3")
	if !strings.Contains(out, "SCoinIssuer") {
		t.Errorf("table3 output incomplete:\n%s", out)
	}
}

func TestFig6Smoke(t *testing.T) {
	out := runSmoke(t, "fig6")
	if !strings.Contains(out, "GRuB saving") {
		t.Errorf("fig6 savings line missing:\n%s", out)
	}
}

func TestFig9Smoke(t *testing.T)   { runSmoke(t, "fig9") }
func TestFig15Smoke(t *testing.T)  { runSmoke(t, "fig15") }
func TestTable5Smoke(t *testing.T) { runSmoke(t, "table5") }

func TestShardSmoke(t *testing.T) {
	e, err := ByID("shard")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		if metrics[fmt.Sprintf("shards%d.opsPerSec", n)] <= 0 {
			t.Errorf("shards%d.opsPerSec missing or zero: %v", n, metrics)
		}
		if metrics[fmt.Sprintf("shards%d.gasPerOp", n)] <= 0 {
			t.Errorf("shards%d.gasPerOp missing or zero: %v", n, metrics)
		}
	}
	if !strings.Contains(buf.String(), "shards") {
		t.Errorf("shard report incomplete:\n%s", buf.String())
	}
}

func TestPersistSmoke(t *testing.T) {
	e, err := ByID("persist")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"memory.opsPerSec", "wal.opsPerSec", "recovery.snapshot.ms"} {
		if _, ok := metrics[name]; !ok {
			t.Errorf("metric %s missing: %v", name, metrics)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "WAL overhead") || !strings.Contains(out, "recovery") {
		t.Errorf("persist report incomplete:\n%s", out)
	}
}

// TestReplSmoke runs the replication experiment and pins its acceptance
// bar: the cold follower must actually ship log bytes, and verified reads
// must flow at every follower count.
func TestReplSmoke(t *testing.T) {
	e, err := ByID("repl")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if metrics["repl.catchup.MBps"] <= 0 {
		t.Errorf("catch-up throughput missing or zero: %v", metrics)
	}
	for _, n := range []int{1, 2, 4} {
		if metrics[fmt.Sprintf("repl.verified.opsPerSec.%df", n)] <= 0 {
			t.Errorf("verified ops/sec at %d followers missing or zero: %v", n, metrics)
		}
	}
	if !strings.Contains(buf.String(), "catch-up") {
		t.Errorf("repl report incomplete:\n%s", buf.String())
	}
}

// TestClusterSmoke runs the cluster experiment and pins its acceptance
// bar: writes must flow at every node count and both latency paths must
// report sane percentiles (forwarded >= owner-local at the median is NOT
// asserted — loopback noise — but both must be nonzero).
func TestClusterSmoke(t *testing.T) {
	e, err := ByID("cluster")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		if metrics[fmt.Sprintf("cluster.write.opsPerSec.%dn", n)] <= 0 {
			t.Errorf("write ops/sec at %d nodes missing or zero: %v", n, metrics)
		}
		share := metrics[fmt.Sprintf("cluster.write.maxOwnerShare.%dn", n)]
		if share <= 0 || share > 1 {
			t.Errorf("max owner share at %d nodes out of range: %v", n, share)
		}
	}
	if s := metrics["cluster.write.maxOwnerShare.1n"]; s != 1 {
		t.Errorf("single node must own every feed, got share %v", s)
	}
	for _, m := range []string{"cluster.latency.owner-local.p50Ms", "cluster.latency.forwarded.p50Ms"} {
		if metrics[m] <= 0 {
			t.Errorf("latency metric %s missing or zero: %v", m, metrics)
		}
	}
	if !strings.Contains(buf.String(), "forwarded") {
		t.Errorf("cluster report incomplete:\n%s", buf.String())
	}
}

// TestPublishSmoke runs the view-publication scaling microbench and checks it
// reports a publish cost at both record counts and their ratio. That
// publication is O(1) is pinned where it is deterministic — one allocation
// per Clone at 1k and 100k records, ads.TestCloneIsOneAllocation — not on
// the ratio of two sub-microsecond timings.
func TestPublishSmoke(t *testing.T) {
	e, err := ByID("publish")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	small, big := metrics["publish.nsPerOp.n1000"], metrics["publish.nsPerOp.n100000"]
	if small <= 0 || big <= 0 {
		t.Fatalf("publish cost metrics missing: %v", metrics)
	}
	if ratio := metrics["publish.ratio100kOver1k"]; ratio <= 0 {
		t.Errorf("publish cost ratio missing: %v", metrics)
	}
	if !strings.Contains(buf.String(), "publish") {
		t.Errorf("publish report incomplete:\n%s", buf.String())
	}
}

// TestQuerySmoke runs the authenticated-read experiment and pins what is
// decidable at smoke scale: both read paths make progress, every verified
// read verifies (RunQuery fails on the first rejected proof) and carries a
// non-trivial proof. Which path is faster is reported, not asserted: 128
// reads on 32 records time a few milliseconds per phase.
func TestQuerySmoke(t *testing.T) {
	e, err := ByID("query")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	var buf bytes.Buffer
	cfg := Config{W: &buf, Scale: smokeScale, Seed: 7,
		Metric: func(name string, v float64) { metrics[name] = v }}
	if err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	worker, verified := metrics["worker.opsPerSec"], metrics["verified.opsPerSec"]
	if worker <= 0 || verified <= 0 {
		t.Fatalf("throughput metrics missing: %v", metrics)
	}
	if metrics["verified.proofBytesPerOp"] <= 0 {
		t.Errorf("proof bytes per op missing: %v", metrics)
	}
	if !strings.Contains(buf.String(), "verified") {
		t.Errorf("query report incomplete:\n%s", buf.String())
	}
}
