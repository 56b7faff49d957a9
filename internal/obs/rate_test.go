package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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

// TestMergeLoads: several members' load gauges read as one ranked list,
// summed per feed.
func TestMergeLoads(t *testing.T) {
	a := LoadFamilies([]FeedLoad{{Feed: "f1", OpsPerSec: 10, GasPerSec: 1}, {Feed: "f2", OpsPerSec: 90}})
	b := LoadFamilies([]FeedLoad{{Feed: "f1", OpsPerSec: 85, GasPerSec: 2}, {Feed: "", OpsPerSec: 1}})
	c := LoadFamilies([]FeedLoad{{Feed: "f3", OpsPerSec: math.NaN()}})
	got := ReadLoads(a, b, c)
	want := []FeedLoad{{Feed: "f1", OpsPerSec: 95, GasPerSec: 3}, {Feed: "f2", OpsPerSec: 90}, {Feed: "f3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %+v, want %+v", got, want)
	}
}

// TestLoadGaugesRoundTrip: the load gauges a member writes read back, over
// the exposition text, as the loads it rendered.
func TestLoadGaugesRoundTrip(t *testing.T) {
	loads := []FeedLoad{{Feed: "hot", OpsPerSec: 812.5, GasPerSec: 2437.25}, {Feed: `we"ird`, OpsPerSec: 3}, {Feed: "gas-only", GasPerSec: 7}}
	var text strings.Builder
	WriteFamilies(&text, LoadFamilies(loads))
	fams, err := ParseExposition(text.String())
	if err != nil {
		t.Fatal(err)
	}
	RankLoads(loads)
	if got := ReadLoads(fams); !reflect.DeepEqual(got, loads) {
		t.Fatalf("read back %+v, want %+v", got, loads)
	}
	if got := ReadLoads(nil); len(got) != 0 {
		t.Fatalf("no families read as %+v", got)
	}
}

// TestReadLoadsSkipsBadSamples: a sample without a feed label, with an
// empty one, or with a non-finite value is skipped, not indexed or summed;
// other families and the other labels of a sample are ignored.
func TestReadLoadsSkipsBadSamples(t *testing.T) {
	text := `# HELP grub_feed_load_ops_per_sec a
# TYPE grub_feed_load_ops_per_sec gauge
grub_feed_load_ops_per_sec 5
grub_feed_load_ops_per_sec{feed=""} 6
grub_feed_load_ops_per_sec{node="n",feed="ok"} 10
grub_feed_load_ops_per_sec{feed="nan"} NaN
grub_feed_load_ops_per_sec{feed="inf"} +Inf
grub_feed_load_ops_per_sec{shard="0"} 7
# HELP grub_feed_load_gas_per_sec b
# TYPE grub_feed_load_gas_per_sec gauge
grub_feed_load_gas_per_sec{feed="ok"} 30
grub_feed_load_gas_per_sec{feed="nan"} 1
grub_feed_load_gas_per_sec{feed="inf"} -Inf
# HELP grub_feed_ops_total c
# TYPE grub_feed_ops_total counter
grub_feed_ops_total{feed="other"} 99
`
	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []FeedLoad{{Feed: "ok", OpsPerSec: 10, GasPerSec: 30}, {Feed: "nan", GasPerSec: 1}}
	if got := ReadLoads(fams); !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
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

// BenchmarkLoadTrackerSnapshot times what every /metrics scrape (and so
// every member's row of a GET /cluster/load) pays to render the load
// gauges at 1k feeds: rank every feed's rate and build the two gauge
// families. It reports the gauges' exposition size as gauge_bytes.
func BenchmarkLoadTrackerSnapshot(b *testing.B) {
	lt, meters := benchTracker()
	now := int64(1000)
	for k, m := range meters {
		m.addAt(now-1, float64(1+k%7), float64(3*(1+k%7)))
	}
	if n := len(lt.snapshotAt(now)); n != benchFeeds {
		b.Fatalf("snapshot has %d feeds, want %d", n, benchFeeds)
	}
	var fams []Family
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fams = LoadFamilies(lt.snapshotAt(now))
	}
	b.StopTimer()
	var text strings.Builder
	WriteFamilies(&text, fams)
	if n := len(ReadLoads(fams)); n != benchFeeds {
		b.Fatalf("gauges read back %d feeds, want %d", n, benchFeeds)
	}
	b.ReportMetric(float64(text.Len()), "gauge_bytes")
}
