package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter()
	// 3 complete seconds at 100 ops/s and 500 gas/s.
	for sec := int64(100); sec < 103; sec++ {
		for i := 0; i < 10; i++ {
			m.addAt(sec, 10, 50)
		}
	}
	r := m.rateAt(103)
	for name, got := range map[string]float64{"ops": r.OpsPerSec, "gas": r.GasPerSec / 5} {
		// Only 3 of the window's 7 completed seconds carry data; the
		// EWMA weights the recent ones, so a steady rate reads within
		// ~15% of true even before the window fills.
		if math.Abs(got-100)/100 > 0.15 {
			t.Errorf("%s rate = %v, want ~100", name, got)
		}
	}
}

func TestRateMeterDecay(t *testing.T) {
	m := NewRateMeter()
	m.addAt(200, 1000, 0)
	burst := m.rateAt(201).OpsPerSec
	if burst < 400 {
		t.Fatalf("fresh burst rate = %v, want >= 400", burst)
	}
	later := m.rateAt(204).OpsPerSec
	if later >= burst/4 {
		t.Errorf("rate after 3 idle seconds = %v, want < %v", later, burst/4)
	}
	if got := m.rateAt(200 + rateWindow + 1).OpsPerSec; got != 0 {
		t.Errorf("rate after window aged out = %v, want 0", got)
	}
}

func TestRateMeterNilSafe(t *testing.T) {
	var m *RateMeter
	m.Add(1, 2)
	if r := m.Rate(); !r.zero() {
		t.Fatalf("nil meter rate = %+v", r)
	}
	var lt *LoadTracker
	if lt.Meter("x") != nil {
		t.Fatal("nil tracker must yield nil meters")
	}
	lt.Forget("x")
	if lt.Snapshot() != nil {
		t.Fatal("nil tracker snapshot must be nil")
	}
}

func TestLoadTrackerRanking(t *testing.T) {
	lt := NewLoadTracker()
	now := int64(300)
	lt.Meter("cold").addAt(now-1, 1, 1)
	lt.Meter("hot").addAt(now-1, 500, 10)
	lt.Meter("warm").addAt(now-1, 50, 5)
	lt.Meter("idle") // metered but no traffic
	snap := lt.snapshotAt(now)
	if len(snap) != 3 || snap[0].Feed != "hot" || snap[1].Feed != "warm" {
		t.Fatalf("snapshot = %+v, want hot, warm, cold", snap)
	}
	lt.Forget("hot")
	if s := lt.snapshotAt(now); len(s) != 2 || s[0].Feed != "warm" {
		t.Fatalf("after Forget: %+v", s)
	}
	if lt.Meter("hot") == nil {
		t.Fatal("Meter must recreate after Forget")
	}
}

func TestMergeLoads(t *testing.T) {
	a := []FeedLoad{{Feed: "f1", OpsPerSec: 10, GasPerSec: 1}, {Feed: "f2", OpsPerSec: 90}}
	b := []FeedLoad{{Feed: "f1", OpsPerSec: 85, GasPerSec: 2}, {Feed: "", OpsPerSec: 1}}
	c := []FeedLoad{{Feed: "f3", OpsPerSec: math.NaN()}}
	got := MergeLoads(a, b, c)
	if len(got) != 2 {
		t.Fatalf("merged = %+v, want 2 feeds", got)
	}
	if got[0].Feed != "f1" || got[0].OpsPerSec != 95 || got[0].GasPerSec != 3 {
		t.Errorf("f1 merge = %+v", got[0])
	}
	if got[1].Feed != "f2" || got[1].OpsPerSec != 90 {
		t.Errorf("f2 merge = %+v", got[1])
	}
}

// benchFeeds is the node size the load plane is designed for: one
// LoadTracker metering about a thousand feeds.
const benchFeeds = 1000

func benchTracker() (*LoadTracker, []*RateMeter) {
	lt := NewLoadTracker()
	meters := make([]*RateMeter, benchFeeds)
	for i := range meters {
		meters[i] = lt.Meter(fmt.Sprintf("lf%04d", i))
	}
	return lt, meters
}

// BenchmarkRateMeterAdd times the metering tax on the write path: the
// shard worker calls RateMeter.Add once per applied batch. One op is one
// Add, spread across every feed's meter.
func BenchmarkRateMeterAdd(b *testing.B) {
	_, meters := benchTracker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % benchFeeds
		meters[k].Add(1+k%7, float64(3*(1+k%7)))
	}
}

// BenchmarkLoadTrackerSnapshot times what every cluster heartbeat pays to
// build its load digest at 1k feeds: rank every feed's rate and keep the
// hottest 64 (the cluster's per-heartbeat cap). It reports the digest's
// JSON size as digest_bytes.
func BenchmarkLoadTrackerSnapshot(b *testing.B) {
	const digestCap = 64
	lt, meters := benchTracker()
	now := int64(1000)
	for k, m := range meters {
		m.addAt(now-1, float64(1+k%7), float64(3*(1+k%7)))
	}
	if n := len(lt.snapshotAt(now)); n != benchFeeds {
		b.Fatalf("snapshot has %d feeds, want %d", n, benchFeeds)
	}
	var digest []FeedLoad
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digest = lt.snapshotAt(now)
		if len(digest) > digestCap {
			digest = digest[:digestCap]
		}
	}
	b.StopTimer()
	if len(digest) != digestCap {
		b.Fatalf("digest has %d feeds, want %d", len(digest), digestCap)
	}
	wire, err := json.Marshal(digest)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(wire)), "digest_bytes")
}
