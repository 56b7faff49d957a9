package server

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/repl"
)

// GET /metrics: Prometheus text exposition (format 0.0.4), rendered by
// internal/obs so the gateway stays dependency-free. Two sources merge into
// one scrape: per-feed counters/gauges derived from the same Stats snapshot
// the JSON API serves (computed at scrape time — the engine is the source
// of truth, not a second set of counters that could drift), and the
// registry-backed pipeline-stage latency histograms (grub_stage_seconds)
// the shard workers, query engine and follower tailers observe into. On a
// follower the replication gauges (notably grub_repl_lag = leader seq −
// follower seq, per shard) come from the follower's tailer status.

// metricsHandler renders the gateway's metrics; follower, node and slow
// may be nil (leader/standalone mode, non-clustered mode, and slow-op
// logging disabled respectively).
func metricsHandler(g *Gateway, follower *repl.Follower, node *cluster.Node, slow *slowLogger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(renderMetrics(g, follower, node, slow)))
	}
}

// renderMetrics builds the full exposition text. The federation plane
// (GET /cluster/metrics) calls it directly for the answering node's own
// registry, so self never round-trips through HTTP.
func renderMetrics(g *Gateway, follower *repl.Follower, node *cluster.Node, slow *slowLogger) string {
	ids := g.Feeds()
	feedSeries := []obs.Series{
		{Name: "grub_feed_ops_total", Help: "Executed ops per feed.", Type: "counter"},
		{Name: "grub_feed_batches_total", Help: "Executed batches per feed.", Type: "counter"},
		{Name: "grub_feed_gas_total", Help: "Cumulative feed-layer gas per feed.", Type: "counter"},
		{Name: "grub_feed_records", Help: "Records currently held per feed.", Type: "gauge"},
		{Name: "grub_feed_delivered_total", Help: "Reads delivered per feed.", Type: "counter"},
		{Name: "grub_feed_replicated", Help: "Records currently replicated on-chain per feed.", Type: "gauge"},
		{Name: "grub_feed_persist_snapshots_total", Help: "Durable snapshots taken per feed.", Type: "counter"},
		{Name: "grub_feed_persist_logged_batches", Help: "Durable log records retained since the last snapshot per feed.", Type: "gauge"},
	}
	for _, id := range ids {
		st, err := g.Stats(id)
		if err != nil {
			continue // closed mid-scrape
		}
		label := obs.Labels("feed", id)
		add := func(i int, v float64) {
			feedSeries[i].Samples = append(feedSeries[i].Samples, obs.Sample{Labels: label, Value: v})
		}
		add(0, float64(st.Ops))
		add(1, float64(st.Batches))
		add(2, float64(st.Feed.FeedGas))
		add(3, float64(st.Feed.Records))
		add(4, float64(st.Feed.Delivered))
		add(5, float64(st.Feed.Replicated))
		if st.Persist != nil {
			add(6, float64(st.Persist.Snapshots))
			add(7, float64(st.Persist.LoggedBatches))
		}
	}
	halted := len(g.Halted())

	isFollower := 0.0
	if follower != nil {
		isFollower = 1
	}
	var b strings.Builder
	obs.WriteSeries(&b, []obs.Series{
		{
			Name: "grub_gateway_feeds", Help: "Feeds hosted by this gateway.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(len(ids))}},
		},
		{
			Name: "grub_repl_follower", Help: "Whether this gateway runs in follower mode.", Type: "gauge",
			Samples: []obs.Sample{{Value: isFollower}},
		},
		{
			Name: "grub_shards_halted", Help: "Shards permanently halted on a detected divergence.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(halted)}},
		},
		{
			Name: "grub_build_info", Help: "Build metadata; the value is always 1.", Type: "gauge",
			Samples: []obs.Sample{{Labels: obs.Labels("version", Version), Value: 1}},
		},
		{
			Name: "grub_uptime_seconds", Help: "Seconds since this gateway started.", Type: "gauge",
			Samples: []obs.Sample{{Value: g.Uptime().Seconds()}},
		},
		{
			Name: "grub_slowlog_dropped_total", Help: "Slow-op records suppressed by the per-second emission cap.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(slow.Dropped())}},
		},
	})
	obs.WriteSeries(&b, feedSeries)
	obs.WriteSeries(&b, loadSeries(g))
	if follower != nil {
		obs.WriteSeries(&b, followerSeries(follower))
	}
	if node != nil {
		obs.WriteSeries(&b, clusterSeries(node))
	}
	// Registry-backed families (the grub_stage_seconds pipeline
	// histograms) render last; the registry sorts its own families.
	g.Metrics().WritePrometheus(&b)
	return b.String()
}

// loadSeries renders the per-feed load tracker as gauges: the same
// sliding-window EWMAs GET /cluster/load ranks and heartbeats ship in
// digest form. Idle feeds decay out of the snapshot, so the series set
// shrinks back to nothing when traffic stops.
func loadSeries(g *Gateway) []obs.Series {
	out := []obs.Series{
		{Name: "grub_feed_load_ops_per_sec", Help: "Recent per-feed op throughput (sliding-window EWMA).", Type: "gauge"},
		{Name: "grub_feed_load_gas_per_sec", Help: "Recent per-feed gas burn rate (sliding-window EWMA).", Type: "gauge"},
	}
	for _, fl := range g.Load().Snapshot() {
		label := obs.Labels("feed", fl.Feed)
		out[0].Samples = append(out[0].Samples, obs.Sample{Labels: label, Value: fl.OpsPerSec})
		out[1].Samples = append(out[1].Samples, obs.Sample{Labels: label, Value: fl.GasPerSec})
	}
	return out
}

// clusterRoleCode maps this node's role in a feed to a numeric gauge so
// dashboards can plot ownership moves (0 follower, 1 owner, 2 owner mid-
// migration fence, 3 deleted).
var clusterRoleCode = map[string]int{
	"follower": 0, "owner": 1, "owner-fenced": 2, "deleted": 3,
}

func clusterSeries(node *cluster.Node) []obs.Series {
	st := node.Status()
	alive := 0
	for _, m := range st.Members {
		if m.Alive {
			alive++
		}
	}
	quorum := 0.0
	if st.Quorum {
		quorum = 1
	}
	out := []obs.Series{
		{Name: "grub_cluster_members", Help: "Static cluster member count.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(len(st.Members))}}},
		{Name: "grub_cluster_members_alive", Help: "Members heard from within the failure window (including self).", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(alive)}}},
		{Name: "grub_cluster_quorum", Help: "Whether this node sees a member majority (writes require it).", Type: "gauge",
			Samples: []obs.Sample{{Value: quorum}}},
		{Name: "grub_cluster_epoch", Help: "Highest placement fencing epoch known to this node (the ring epoch).", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(st.Epoch)}}},
		{Name: "grub_cluster_forwards_total", Help: "Write-path requests this node proxied to a feed's owner.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.ForwardsTotal)}}},
		{Name: "grub_cluster_failovers_total", Help: "Failover promotions this node performed.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.FailoversTotal)}}},
		{Name: "grub_cluster_role", Help: "This node's role per feed (0 follower, 1 owner, 2 owner-fenced, 3 deleted).", Type: "gauge"},
		{Name: "grub_cluster_heartbeat_lag_seconds", Help: "Seconds since each peer was last heard from (-1 = never).", Type: "gauge"},
	}
	for _, fp := range st.Feeds {
		out[6].Samples = append(out[6].Samples,
			obs.Sample{Labels: obs.Labels("feed", fp.Feed), Value: float64(clusterRoleCode[fp.Role])})
	}
	lag := node.HeartbeatLag()
	peers := make([]string, 0, len(lag))
	for p := range lag {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		out[7].Samples = append(out[7].Samples,
			obs.Sample{Labels: obs.Labels("peer", p), Value: lag[p]})
	}
	return out
}

func followerSeries(follower *repl.Follower) []obs.Series {
	feeds, _ := follower.Status()
	out := []obs.Series{
		{Name: "grub_repl_seq", Help: "Follower's applied batch sequence per feed shard.", Type: "gauge"},
		{Name: "grub_repl_leader_seq", Help: "Leader's batch sequence as last observed, per feed shard.", Type: "gauge"},
		{Name: "grub_repl_lag", Help: "Replication lag (leader seq - follower seq) per feed shard.", Type: "gauge"},
		{Name: "grub_repl_state", Help: "Tailer state per feed shard (0 tailing, 1 syncing, 2 gone, 3 failed, 4 halted).", Type: "gauge"},
	}
	for _, fs := range feeds {
		for _, ss := range fs.Shards {
			label := obs.Labels("feed", fs.ID, "shard", strconv.Itoa(ss.Shard))
			out[0].Samples = append(out[0].Samples, obs.Sample{Labels: label, Value: float64(ss.Seq)})
			out[1].Samples = append(out[1].Samples, obs.Sample{Labels: label, Value: float64(ss.LeaderSeq)})
			out[2].Samples = append(out[2].Samples, obs.Sample{Labels: label, Value: float64(ss.Lag)})
			out[3].Samples = append(out[3].Samples, obs.Sample{Labels: label, Value: float64(repl.Severity(ss.State))})
		}
	}
	return out
}
