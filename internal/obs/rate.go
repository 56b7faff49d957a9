package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// rateWindow is the number of one-second buckets a RateMeter keeps.
// The EWMA looks back over the completed buckets, so the meter reacts
// within a second and forgets a burst after ~rateWindow seconds.
const rateWindow = 8

// rateAlpha weights the most recent completed second; each older
// second contributes (1-rateAlpha) times the weight of the one after
// it. 0.5 converges to within 25% of a steady rate after two complete
// seconds while still smoothing scheduler jitter.
const rateAlpha = 0.5

// LoadSample is a point-in-time per-second load estimate.
type LoadSample struct {
	OpsPerSec float64
	GasPerSec float64
}

// rateBucket accumulates one wall-clock second of raw counts. sec is
// the unix second the bucket currently represents; a slot whose sec
// does not match the second it should hold is stale and reads as zero.
type rateBucket struct {
	sec int64
	ops float64
	gas float64
}

// RateMeter estimates per-second op and gas rates over a
// sliding window of one-second buckets, summarized by an exponentially
// weighted moving average over the completed seconds. All methods are
// safe for concurrent use and nil-safe, so unmetered paths pay only a
// nil check.
type RateMeter struct {
	mu   sync.Mutex
	slot [rateWindow]rateBucket
}

// NewRateMeter returns an empty meter.
func NewRateMeter() *RateMeter {
	return &RateMeter{}
}

// Add records a completed unit of work: ops applied and gas charged.
func (m *RateMeter) Add(ops int, gas float64) {
	if m == nil {
		return
	}
	m.addAt(time.Now().Unix(), float64(ops), gas)
}

func (m *RateMeter) addAt(sec int64, ops, gas float64) {
	m.mu.Lock()
	b := &m.slot[int(sec%rateWindow+rateWindow)%rateWindow]
	if b.sec != sec {
		*b = rateBucket{sec: sec}
	}
	b.ops += ops
	b.gas += gas
	m.mu.Unlock()
}

// Rate returns the current EWMA per-second estimate. An idle meter
// decays toward zero as its buckets age out of the window.
func (m *RateMeter) Rate() LoadSample {
	if m == nil {
		return LoadSample{}
	}
	return m.rateAt(time.Now().Unix())
}

func (m *RateMeter) rateAt(now int64) LoadSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s LoadSample
	var wsum float64
	w := rateAlpha
	// Walk the completed seconds newest-first; stale slots count as
	// zero so idle seconds pull the average down.
	for k := 1; k < rateWindow; k++ {
		sec := now - int64(k)
		b := m.slot[int(sec%rateWindow+rateWindow)%rateWindow]
		if b.sec == sec {
			s.OpsPerSec += w * b.ops
			s.GasPerSec += w * b.gas
		}
		wsum += w
		w *= 1 - rateAlpha
	}
	if wsum > 0 {
		inv := 1 / wsum
		s.OpsPerSec *= inv
		s.GasPerSec *= inv
	}
	return s
}

// zero reports whether the sample carries no signal at all.
func (s LoadSample) zero() bool {
	return s.OpsPerSec == 0 && s.GasPerSec == 0
}

// FeedLoad is one feed's load estimate, the unit of the ranked
// /cluster/load report and of the grub_feed_load_* gauges it is read from.
type FeedLoad struct {
	Feed      string  `json:"feed"`
	OpsPerSec float64 `json:"opsPerSec"`
	GasPerSec float64 `json:"gasPerSec"`
}

// LoadTracker owns one RateMeter per feed. Nil-safe: a nil tracker
// hands out nil meters.
type LoadTracker struct {
	mu    sync.Mutex
	feeds map[string]*RateMeter
}

// NewLoadTracker returns an empty tracker.
func NewLoadTracker() *LoadTracker {
	return &LoadTracker{feeds: make(map[string]*RateMeter)}
}

// Meter returns the meter for a feed, creating it on first use.
func (lt *LoadTracker) Meter(feed string) *RateMeter {
	if lt == nil {
		return nil
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	m, ok := lt.feeds[feed]
	if !ok {
		m = NewRateMeter()
		lt.feeds[feed] = m
	}
	return m
}

// Forget drops a feed's meter (feed removed).
func (lt *LoadTracker) Forget(feed string) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	delete(lt.feeds, feed)
	lt.mu.Unlock()
}

// Snapshot returns the current load of every feed with any signal in
// its window, ranked by ops/sec descending (ties by feed ID so the
// order is stable).
func (lt *LoadTracker) Snapshot() []FeedLoad {
	if lt == nil {
		return nil
	}
	return lt.snapshotAt(time.Now().Unix())
}

func (lt *LoadTracker) snapshotAt(now int64) []FeedLoad {
	lt.mu.Lock()
	metered := make([]struct {
		feed string
		m    *RateMeter
	}, 0, len(lt.feeds))
	for feed, m := range lt.feeds {
		metered = append(metered, struct {
			feed string
			m    *RateMeter
		}{feed, m})
	}
	lt.mu.Unlock()
	out := make([]FeedLoad, 0, len(metered))
	for _, e := range metered {
		r := e.m.rateAt(now)
		if r.zero() {
			continue
		}
		out = append(out, FeedLoad{Feed: e.feed, OpsPerSec: r.OpsPerSec, GasPerSec: r.GasPerSec})
	}
	RankLoads(out)
	return out
}

// RankLoads sorts loads by ops/sec descending, breaking ties by gas
// then feed ID, in place.
func RankLoads(loads []FeedLoad) {
	sort.SliceStable(loads, func(i, j int) bool {
		if loads[i].OpsPerSec != loads[j].OpsPerSec {
			return loads[i].OpsPerSec > loads[j].OpsPerSec
		}
		if loads[i].GasPerSec != loads[j].GasPerSec {
			return loads[i].GasPerSec > loads[j].GasPerSec
		}
		return loads[i].Feed < loads[j].Feed
	})
}

// The per-feed load gauges: how /metrics carries a LoadTracker's snapshot,
// and what GET /cluster/load reads every member's load back from.
const (
	loadOpsGauge = "grub_feed_load_ops_per_sec"
	loadGasGauge = "grub_feed_load_gas_per_sec"
)

// LoadFamilies renders loads as the per-feed load gauges, one sample of
// each per feed. A feed idle long enough to leave the tracker's snapshot
// has no series, so the set shrinks back to nothing when traffic stops.
func LoadFamilies(loads []FeedLoad) []Family {
	out := []Family{
		{Name: loadOpsGauge, Help: "Recent per-feed op throughput (sliding-window EWMA).", Type: "gauge"},
		{Name: loadGasGauge, Help: "Recent per-feed gas burn rate (sliding-window EWMA).", Type: "gauge"},
	}
	for _, fl := range loads {
		out[0].Add(fl.OpsPerSec, "feed", fl.Feed)
		out[1].Add(fl.GasPerSec, "feed", fl.Feed)
	}
	return out
}

// ReadLoads reads the per-feed load gauges back out of members' families
// into one ranked list, summing rates per feed across members (a feed
// served by one owner plus follower tails reports the union of their
// work). The families may come from other processes, so a sample without a
// non-empty feed label or with a non-finite value is skipped.
func ReadLoads(members ...[]Family) []FeedLoad {
	byFeed := make(map[string]*FeedLoad)
	for _, fams := range members {
		for _, f := range fams {
			if f.Name != loadOpsGauge && f.Name != loadGasGauge {
				continue
			}
			for _, s := range f.Samples {
				i := slices.IndexFunc(s.Labels, func(lp LabelPair) bool { return lp.Name == "feed" })
				if i < 0 || s.Labels[i].Value == "" || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					continue
				}
				fl, ok := byFeed[s.Labels[i].Value]
				if !ok {
					fl = &FeedLoad{Feed: s.Labels[i].Value}
					byFeed[fl.Feed] = fl
				}
				if f.Name == loadOpsGauge {
					fl.OpsPerSec += s.Value
				} else {
					fl.GasPerSec += s.Value
				}
			}
		}
	}
	out := make([]FeedLoad, 0, len(byFeed))
	for _, fl := range byFeed {
		out = append(out, *fl)
	}
	RankLoads(out)
	return out
}
