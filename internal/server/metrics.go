package server

import (
	"strconv"

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
// the shard workers, query engine and replication tails observe into. On a
// cluster node (member or observer) the replication gauges (notably
// grub_repl_lag = owner seq − local seq, per shard) come from the status
// of each feed it tails.

// expositionType is the Content-Type of the text exposition.
const expositionType = "text/plain; version=0.0.4; charset=utf-8"

// metrics renders the gateway's metrics.
func (a *api) metrics(c *call, rep *reply) {
	rep.ContentType = expositionType
	obs.WriteFamilies(rep, renderMetrics(a.g, a.node, a.slow))
}

// renderMetrics returns every family the gateway exposes, in exposition
// order (WriteFamilies skips those with no sample). The federation plane
// (GET /cluster/metrics) takes them directly for the answering node, so
// self never round-trips through HTTP or text.
func renderMetrics(g *Gateway, node *cluster.Node, slow *slowLogger) []obs.Family {
	ids := g.Feeds()
	fams := []obs.Family{
		gauge("grub_gateway_feeds", "Feeds hosted by this gateway.", float64(len(ids))),
		gauge("grub_shards_halted", "Shards permanently halted on a detected divergence.", float64(len(g.Halted()))),
		gauge("grub_build_info", "Build metadata; the value is always 1.", 1, "version", Version),
		gauge("grub_uptime_seconds", "Seconds since this gateway started.", g.Uptime().Seconds()),
		counter("grub_slowlog_dropped_total", "Slow-op records suppressed by the per-second emission cap.", float64(slow.Dropped())),
	}
	fams = append(fams, feedFamilies(g, ids)...)
	fams = append(fams, obs.LoadFamilies(g.Load().Snapshot())...)
	if node != nil {
		st := node.Status()
		fams = append(fams, clusterFamilies(st)...)
		fams = append(fams, tailFamilies(st)...)
	}
	// Registry-backed families (the grub_stage_seconds pipeline
	// histograms, stream and read counters) come last, sorted by name.
	return append(fams, g.Metrics().Families()...)
}

// gauge and counter build a family of one sample.
func gauge(name, help string, v float64, pairs ...string) obs.Family {
	f := obs.Family{Name: name, Help: help, Type: "gauge"}
	f.Add(v, pairs...)
	return f
}

func counter(name, help string, v float64) obs.Family {
	f := obs.Family{Name: name, Help: help, Type: "counter"}
	f.Add(v)
	return f
}

// feedFamilies derives the per-feed counters and gauges from the same Stats
// snapshot the JSON API serves.
func feedFamilies(g *Gateway, ids []string) []obs.Family {
	out := []obs.Family{
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
		vals := []float64{float64(st.Ops), float64(st.Batches), float64(st.Feed.FeedGas),
			float64(st.Feed.Records), float64(st.Feed.Delivered), float64(st.Feed.Replicated)}
		if st.Persist != nil {
			vals = append(vals, float64(st.Persist.Snapshots), float64(st.Persist.LoggedBatches))
		}
		for i, v := range vals {
			out[i].Add(v, "feed", id)
		}
	}
	return out
}

// clusterRoleCode maps this node's role in a feed to a numeric gauge so
// dashboards can plot ownership moves (0 follower, 1 owner, 2 owner mid-
// migration fence, 3 deleted).
var clusterRoleCode = map[string]int{
	"follower": 0, "owner": 1, "owner-fenced": 2, "deleted": 3,
}

func clusterFamilies(st cluster.Status) []obs.Family {
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
	out := []obs.Family{
		gauge("grub_cluster_members", "Static cluster member count.", float64(len(st.Members))),
		gauge("grub_cluster_members_alive", "Members heard from within the failure window (including self).", float64(alive)),
		gauge("grub_cluster_quorum", "Whether this node sees a member majority (writes require it).", quorum),
		gauge("grub_cluster_epoch", "Highest placement fencing epoch known to this node.", float64(st.Epoch)),
		counter("grub_cluster_forwards_total", "Write-path requests this node proxied to a feed's owner.", float64(st.ForwardsTotal)),
		counter("grub_cluster_failovers_total", "Failover promotions this node performed.", float64(st.FailoversTotal)),
		{Name: "grub_cluster_role", Help: "This node's role per feed (0 follower, 1 owner, 2 owner-fenced, 3 deleted).", Type: "gauge"},
		{Name: "grub_cluster_heartbeat_lag_seconds", Help: "Seconds since each peer was last heard from (-1 = never).", Type: "gauge"},
	}
	for _, fp := range st.Feeds {
		out[6].Add(float64(clusterRoleCode[fp.Role]), "feed", fp.Feed)
	}
	for _, m := range st.Members {
		if m.Self {
			continue
		}
		lag := -1.0
		if m.LastSeenMS >= 0 {
			lag = float64(m.LastSeenMS) / 1000
		}
		out[7].Add(lag, "peer", m.URL)
	}
	return out
}

// tailFamilies renders the replication health of every feed this node
// tails (every feed it does not own) from the cluster status.
func tailFamilies(st cluster.Status) []obs.Family {
	out := []obs.Family{
		{Name: "grub_repl_seq", Help: "Applied batch sequence of a tailed feed, per shard.", Type: "gauge"},
		{Name: "grub_repl_leader_seq", Help: "Owner's batch sequence as last observed, per feed shard.", Type: "gauge"},
		{Name: "grub_repl_lag", Help: "Replication lag (owner seq - local seq) per feed shard.", Type: "gauge"},
		{Name: "grub_repl_state", Help: "Tailer state per feed shard (0 tailing, 1 syncing, 2 gone, 3 failed, 4 halted).", Type: "gauge"},
	}
	for _, fp := range st.Feeds {
		if fp.Tail == nil {
			continue
		}
		for _, ss := range fp.Tail.Shards {
			shard := strconv.Itoa(ss.Shard)
			for i, v := range []float64{float64(ss.Seq), float64(ss.LeaderSeq), float64(ss.Lag), float64(repl.Severity(ss.State))} {
				out[i].Add(v, "feed", fp.Feed, "shard", shard)
			}
		}
	}
	return out
}
