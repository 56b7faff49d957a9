package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/shard"
)

// DefaultMaxBodyBytes caps POST request bodies (8 MiB). Decoding an
// unbounded body would let one client exhaust the gateway's memory before a
// single op executes.
const DefaultMaxBodyBytes int64 = 8 << 20

// maxLogBatches caps replication log entries per GET /repl/.../log page
// (and is the default when the follower does not ask for less), bounding
// response size the way MaxBodyBytes bounds requests.
const maxLogBatches = 256

// HandlerConfig tunes the HTTP layer.
type HandlerConfig struct {
	// MaxBodyBytes caps POST bodies; requests beyond it get 413. Values
	// <= 0 mean DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// TamperQuery, when non-nil, may rewrite an authenticated-read
	// response (*GetResponse, *RangeResponse or *RootsResponse) just
	// before it is encoded. It models a compromised gateway so the
	// VerifyingClient rejection tests have something to reject;
	// production configs leave it nil.
	TamperQuery func(any)
	// Cluster, when non-nil, puts the handler in cluster mode (grubd
	// -join, or -follow for an observer that never owns): write-path
	// requests are routed by the node's placement map — applied locally
	// when this node owns the feed, transparently proxied to the owner
	// otherwise — the /cluster/* surface activates, and /healthz and
	// /metrics grow cluster and replication fields. Reads always serve
	// locally from the node's verified replica.
	Cluster *cluster.Node
	// SlowOp enables structured slow-batch logging (grubd's -slow-ms):
	// every write batch whose gateway round trip exceeds it emits one
	// JSON line (SlowOpRecord) with the batch's trace ID and per-stage
	// span breakdown. 0 disables. Enabling it also traces every batch,
	// whether or not the client sent an X-Grub-Trace header.
	SlowOp time.Duration
	// SlowOpWriter receives the slow-op lines (default os.Stderr).
	SlowOpWriter io.Writer
}

// BatchRequest is the body of POST /feeds/{id}/ops.
type BatchRequest struct {
	Ops []Op `json:"ops"`
}

// BatchResponse answers it.
type BatchResponse struct {
	Results []OpResult `json:"results"`
}

// TraceResponse is the body of GET /feeds/{id}/trace: the serialized op
// order and, index-aligned, the result each op produced when it executed.
type TraceResponse struct {
	Ops     []Op       `json:"ops"`
	Results []OpResult `json:"results,omitempty"`
}

// ShardsResponse is the body of GET /feeds/{id}/shards.
type ShardsResponse struct {
	ID     string            `json:"id"`
	Shards []shard.ShardStat `json:"shards"`
}

// SnapshotResponse is the body of POST /feeds/{id}/snapshot: the feed's
// durability counters after the snapshot completed.
type SnapshotResponse struct {
	ID      string             `json:"id"`
	Persist shard.PersistStats `json:"persist"`
}

// InfoResponse is the body of GET /info.
type InfoResponse struct {
	// Version is the gateway build version (server.Version).
	Version string `json:"version"`
	// Persistent reports whether the gateway runs with a data directory.
	Persistent bool `json:"persistent"`
	// DataDir is the gateway's data directory ("" when in-memory).
	DataDir string `json:"dataDir,omitempty"`
	// Feeds is the number of hosted feeds.
	Feeds int `json:"feeds"`
}

// HealthResponse is the body of GET /healthz, the load-balancer liveness
// probe. A gateway with any halted shard — an engine-side divergence halt,
// or (in cluster mode) a tail that refused to fork — reports OK=false with
// the shards listed in Degraded, and the probe answers 503 so the balancer
// stops routing to a node serving frozen state.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	Feeds   int    `json:"feeds"`
	Version string `json:"version"`
	// Degraded lists halted shards, sorted by feed then shard.
	Degraded []ShardHealth `json:"degraded,omitempty"`
	// Cluster is this node's cluster view (role per feed, members, quorum)
	// when clustering is enabled.
	Cluster *cluster.Status `json:"cluster,omitempty"`
}

// StageLatency summarizes one pipeline stage's latency distribution for
// GET /feeds/{id}/stats/latency, in milliseconds.
type StageLatency struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
}

// LatencyResponse is the body of GET /feeds/{id}/stats/latency: per-stage
// latency percentiles for every pipeline stage the feed has crossed at
// least once (derived from the same histograms /metrics exposes).
type LatencyResponse struct {
	ID     string                  `json:"id"`
	Stages map[string]StageLatency `json:"stages"`
}

// LoadResponse is the body of GET /cluster/load: every feed's recent
// throughput, ranked hottest-first. Feeds is the cluster-wide merge (per
// feed, summed over the per-node digests); Nodes is the per-node
// breakdown with digest freshness. On a non-clustered gateway Feeds is
// the local tracker's snapshot and Nodes is empty.
type LoadResponse struct {
	Node  string             `json:"node,omitempty"`
	Nodes []cluster.NodeLoad `json:"nodes,omitempty"`
	Feeds []obs.FeedLoad     `json:"feeds"`
}

// ReplFeedsResponse is the body of GET /repl/feeds: every hosted feed's
// config, verbatim — what a follower needs to mirror the feed set.
type ReplFeedsResponse struct {
	Feeds []FeedConfig `json:"feeds"`
}

// GetResponse is the body of GET /feeds/{id}/get?key=K: an authenticated
// point read. Result carries the record + membership proof (or absence
// proof) and the shard anchor it verifies against.
type GetResponse struct {
	ID     string           `json:"id"`
	Result *query.GetResult `json:"result"`
}

// RangeResponse is the body of GET /feeds/{id}/range?lo=&hi=: one
// completeness-proven slice per shard (hash partitioning destroys global
// key order, so the client merges the verified slices).
type RangeResponse struct {
	ID      string              `json:"id"`
	Lo      string              `json:"lo"`
	Hi      string              `json:"hi"`
	Results []query.RangeResult `json:"results"`
}

// RootsResponse is the body of GET /feeds/{id}/roots: the per-shard trust
// anchors of the authenticated read path.
type RootsResponse struct {
	ID     string           `json:"id"`
	Shards []query.RootInfo `json:"shards"`
}

// errorBody is the JSON shape of every non-2xx response. Leader names the
// node that accepts the feed's writes. It is set on the cluster's
// redirects (421), fenced or unavailable answers (503) and failed forwards
// (502). The 421 and 502 also send it as the Leader response header, which
// Client follows once on a 421.
type errorBody struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// misdirected answers a request that was already forwarded once and still
// reached a node that is not the feed's owner: 421 with the owner in the
// Leader header and body, never a second proxy hop.
func misdirected(w http.ResponseWriter, msg, owner string) {
	w.Header().Set("Leader", owner)
	writeJSON(w, http.StatusMisdirectedRequest, errorBody{Error: msg, Leader: owner})
}

// clusterDisabled answers a /cluster/* route on a gateway without a
// cluster node.
func clusterDisabled(w http.ResponseWriter) {
	writeJSON(w, http.StatusServiceUnavailable,
		errorBody{Error: "cluster: clustering disabled (start grubd with -join)"})
}

// writeLogPageBinary answers a log fetch in the binary log encoding
// (repl.LogMediaType). The buffer is sized from the entries' WireBytes, which
// bound their encoding, and is left to the collector once written: a pooled
// buffer would keep a page's worth of bytes live per P.
func writeLogPageBinary(w http.ResponseWriter, page repl.LogPage) {
	n := 32
	for i := range page.Entries {
		n += page.Entries[i].WireBytes()
	}
	writeBinary(w, repl.LogMediaType, repl.AppendLogPage(make([]byte, 0, n), &page))
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownFeed):
		status = http.StatusNotFound
	case errors.Is(err, ErrFeedExists):
		status = http.StatusConflict
	case errors.Is(err, ErrBadConfig):
		status = http.StatusBadRequest
	case errors.Is(err, shard.ErrNotPersistent):
		// Snapshots need a gateway started with a data directory.
		status = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody decodes a JSON POST body under the configured size cap,
// translating an overrun into 413 rather than a generic decode failure. It
// reports whether decoding succeeded (the error response is already written
// when it did not).
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBytes)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode: %v", err)})
		return false
	}
	return true
}

// NewHandler exposes a gateway over HTTP with default limits.
func NewHandler(g *Gateway) http.Handler {
	return NewHandlerConfig(g, HandlerConfig{})
}

// NewHandlerConfig exposes a gateway over HTTP, and over a Go-to-Go stream
// (docs/API.md) to a client that offers one; both reach the same routes.
func NewHandlerConfig(g *Gateway, hc HandlerConfig) http.Handler {
	maxBody := hc.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	slow := newSlowLogger(hc.SlowOp, hc.SlowOpWriter)
	mux := http.NewServeMux()

	// forwardOps proxies a batch to the feed's owner with trace stitching:
	// the proxy round trip becomes a `forward` span (and feeds the feed's
	// forward-stage histogram), the owner's spans merge in from the
	// X-Grub-Spans response header, and an over-threshold round trip lands
	// in this node's slow log as a single cross-node breakdown.
	forwardOps := func(w http.ResponseWriter, r *http.Request, feed string, body []byte, owner string, epoch uint64) {
		var tr *obs.Trace
		if traceID := r.Header.Get(obs.TraceHeader); traceID != "" || slow != nil {
			tr = obs.NewTrace(traceID)
			tr.SetNode(hc.Cluster.Self())
			w.Header().Set(obs.TraceHeader, tr.ID())
		}
		start := time.Now()
		forwardToOwner(w, r, body, owner, epoch, hc.Cluster.Client(), tr)
		dur := time.Since(start)
		g.Pipeline().Feed(feed).Record(tr, obs.StageForward, -1, start, dur)
		if slow != nil && tr != nil {
			slow.maybeLog(tr, feed, batchLen(r, body), dur)
		}
	}

	// clusterRoute applies the cluster routing decision for a write-path
	// request on a feed. It reports true when the request was fully handled
	// here — proxied to the owner, fenced (503), quorumless (503) or
	// misdirected (421 + Leader); false means "apply locally". traceOps
	// marks the batch write path, whose forwards are trace-stitched.
	clusterRoute := func(w http.ResponseWriter, r *http.Request, feed string, traceOps bool) bool {
		if hc.Cluster == nil {
			return false
		}
		reqEpoch, _ := strconv.ParseUint(r.Header.Get(cluster.EpochHeader), 10, 64)
		forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
		rt := hc.Cluster.RouteWrite(feed, reqEpoch, forwarded)
		switch rt.Kind {
		case cluster.RouteForward:
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
			if err != nil {
				writeJSON(w, http.StatusRequestEntityTooLarge,
					errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBody)})
				return true
			}
			hc.Cluster.CountForward()
			if traceOps {
				forwardOps(w, r, feed, body, rt.Owner, rt.Epoch)
			} else {
				forwardToOwner(w, r, body, rt.Owner, rt.Epoch, hc.Cluster.Client(), nil)
			}
			return true
		case cluster.RouteFenced, cluster.RouteUnavailable:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "cluster: " + rt.Reason, Leader: rt.Owner})
			return true
		case cluster.RouteMisdirected:
			misdirected(w, fmt.Sprintf("cluster: feed %q is owned by %s", feed, rt.Owner), rt.Owner)
			return true
		}
		return false
	}

	mux.HandleFunc("POST /feeds", func(w http.ResponseWriter, r *http.Request) {
		var cfg FeedConfig
		if !decodeBody(w, r, maxBody, &cfg) {
			return
		}
		if hc.Cluster != nil {
			// New feeds are placed by consistent hashing over the alive
			// members (existing placement wins for re-creates); only the
			// placed owner creates, then claims the feed in the map.
			owner := hc.Cluster.PlaceFeed(cfg.ID)
			switch {
			case owner == "":
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable,
					errorBody{Error: "cluster: no alive member to place feed on"})
				return
			case owner != hc.Cluster.Self() && r.Header.Get(cluster.ForwardedHeader) != "":
				misdirected(w, fmt.Sprintf("cluster: feed %q places on %s", cfg.ID, owner), owner)
				return
			case owner != hc.Cluster.Self():
				body, _ := json.Marshal(cfg)
				hc.Cluster.CountForward()
				if status := forwardToOwner(w, r, body, owner, 0, hc.Cluster.Client(), nil); status == http.StatusCreated {
					// Record the owner now so a write that follows the
					// create immediately routes there instead of missing
					// locally until the next heartbeat.
					hc.Cluster.NoteOwner(cfg.ID, owner)
				}
				return
			}
		}
		if err := g.CreateFeed(cfg); err != nil {
			writeErr(w, err)
			return
		}
		if hc.Cluster != nil {
			hc.Cluster.ClaimFeed(cfg.ID)
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": cfg.ID})
	})

	mux.HandleFunc("GET /feeds", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"feeds": g.Feeds()})
	})

	mux.HandleFunc("POST /feeds/{id}/ops", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if clusterRoute(w, r, id, true) {
			return
		}
		ops, ok := decodeBatch(w, r, maxBody)
		if !ok {
			return
		}
		// Trace the batch when the client asked for it (X-Grub-Trace)
		// or slow-op logging needs the span breakdown; everything else
		// runs with a nil trace and pays only nil checks. A forwarded
		// batch carries the ingress node's trace ID and parent-span
		// reference, so the spans recorded here stitch under that hop.
		forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
		var tr *obs.Trace
		if traceID := r.Header.Get(obs.TraceHeader); traceID != "" || slow != nil {
			tr = obs.NewTrace(traceID)
			if hc.Cluster != nil {
				tr.SetNode(hc.Cluster.Self())
			}
			if parent := r.Header.Get(obs.ParentSpanHeader); parent != "" {
				tr.SetParent(parent)
			}
			w.Header().Set(obs.TraceHeader, tr.ID())
		}
		ctx := obs.WithTrace(r.Context(), tr)
		start := time.Now()
		results, err := g.DoCtx(ctx, id, ops)
		if err != nil {
			writeErr(w, err)
			return
		}
		dur := time.Since(start)
		// Ingress covers the whole gateway round trip: scatter, every
		// per-shard stage, gather. The same window on a forwarded batch
		// is remote_apply — the owner-side half of the forward hop.
		stage := obs.StageIngress
		if forwarded {
			stage = obs.StageRemoteApply
		}
		g.Pipeline().Feed(id).Record(tr, stage, -1, start, dur)
		if forwarded && tr != nil {
			// Hand the full local breakdown back to the ingress node
			// (bounded; EncodeSpans drops tail spans past 8KiB).
			if enc := obs.EncodeSpans(tr.Spans()); enc != "" {
				w.Header().Set(obs.SpanHeader, enc)
			}
		}
		slow.maybeLog(tr, id, len(ops), dur)
		writeResults(w, r, results)
	})

	mux.HandleFunc("GET /feeds/{id}/stats/latency", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := g.Stats(id); err != nil {
			writeErr(w, err) // 404 for unknown feeds, not empty histograms
			return
		}
		fs := g.Pipeline().Feed(id)
		resp := LatencyResponse{ID: id, Stages: map[string]StageLatency{}}
		for _, stage := range obs.Stages {
			s := fs.Hist(stage).Snapshot()
			if s.Count == 0 {
				continue
			}
			resp.Stages[stage] = StageLatency{
				Count:  s.Count,
				MeanMS: s.Mean() * 1000,
				P50MS:  s.Quantile(0.50) * 1000,
				P95MS:  s.Quantile(0.95) * 1000,
				P99MS:  s.Quantile(0.99) * 1000,
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /feeds/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := g.Stats(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /feeds/{id}/shards", func(w http.ResponseWriter, r *http.Request) {
		per, err := g.ShardStats(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ShardsResponse{ID: r.PathValue("id"), Shards: per})
	})

	mux.HandleFunc("POST /feeds/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		ps, err := g.Snapshot(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{ID: r.PathValue("id"), Persist: ps})
	})

	mux.HandleFunc("GET /info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, InfoResponse{
			Version:    Version,
			Persistent: g.DataDir() != "",
			DataDir:    g.DataDir(),
			Feeds:      len(g.Feeds()),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := HealthResponse{
			OK:      true,
			Feeds:   len(g.Feeds()),
			Version: Version,
		}
		// Engine-side divergence halts (a replicated apply this gateway
		// refused) and, in cluster mode, tail-side halts both degrade the
		// probe: a halted shard serves a frozen view forever.
		resp.Degraded = g.Halted()
		if hc.Cluster != nil {
			type shardKey struct {
				feed  string
				shard int
			}
			seen := make(map[shardKey]bool, len(resp.Degraded))
			for _, d := range resp.Degraded {
				seen[shardKey{d.Feed, d.Shard}] = true
			}
			cs := hc.Cluster.Status()
			resp.Cluster = &cs
			// Add each tail's halted shards the engine scan missed.
			for _, fp := range cs.Feeds {
				if fp.Tail == nil {
					continue
				}
				for _, ss := range fp.Tail.Shards {
					if k := (shardKey{fp.Feed, ss.Shard}); ss.State == repl.StateHalted && !seen[k] {
						seen[k] = true
						resp.Degraded = append(resp.Degraded,
							ShardHealth{Feed: fp.Feed, Shard: ss.Shard, State: repl.StateHalted, Error: ss.Error})
					}
				}
			}
		}
		status := http.StatusOK
		if len(resp.Degraded) > 0 {
			resp.OK = false
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})

	mux.HandleFunc("GET /metrics", metricsHandler(g, hc.Cluster, slow))

	// Replication surface: every gateway ships its per-shard log (leader
	// role needs no configuration). Tail health is in /cluster/status.
	mux.HandleFunc("GET /repl/feeds", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ReplFeedsResponse{Feeds: g.ReplConfigs()})
	})

	shardIdx := func(w http.ResponseWriter, r *http.Request) (int, bool) {
		s, err := strconv.Atoi(r.PathValue("shard"))
		if err != nil || s < 0 {
			writeErr(w, fmt.Errorf("server: %w: bad shard %q", ErrBadConfig, r.PathValue("shard")))
			return 0, false
		}
		return s, true
	}

	mux.HandleFunc("GET /repl/feeds/{id}/shards/{shard}/log", func(w http.ResponseWriter, r *http.Request) {
		s, ok := shardIdx(w, r)
		if !ok {
			return
		}
		q := r.URL.Query()
		from, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if q.Get("from") != "" && err != nil {
			writeErr(w, fmt.Errorf("server: %w: bad from %q", ErrBadConfig, q.Get("from")))
			return
		}
		max := maxLogBatches
		if m := q.Get("max"); m != "" {
			v, err := strconv.Atoi(m)
			if err != nil || v < 1 {
				writeErr(w, fmt.Errorf("server: %w: bad max %q", ErrBadConfig, m))
				return
			}
			if v < max {
				max = v
			}
		}
		page, err := g.ReplLog(r.PathValue("id"), s, from, max)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeLogPageBinary(w, page)
	})

	mux.HandleFunc("GET /repl/feeds/{id}/shards/{shard}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		s, ok := shardIdx(w, r)
		if !ok {
			return
		}
		snap, err := g.ReplSnapshot(r.PathValue("id"), s)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	// tamper lets the rejection tests model a compromised gateway; it is
	// the identity in production. It runs on the response struct, before
	// either encoder sees it.
	tamper := func(resp any) {
		if hc.TamperQuery != nil {
			hc.TamperQuery(resp)
		}
	}
	getRoute, rangeRoute := newReadRoute(g.Metrics(), "get"), newReadRoute(g.Metrics(), "range")

	mux.HandleFunc("GET /feeds/{id}/get", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			writeErr(w, fmt.Errorf("server: %w: query parameter key required", ErrBadConfig))
			return
		}
		e, err := g.Query(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		res, err := e.Get(key)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp := &GetResponse{ID: r.PathValue("id"), Result: res}
		tamper(resp)
		getRoute.write(w, r, resp)
	})

	mux.HandleFunc("GET /feeds/{id}/range", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		lo, hi := q.Get("lo"), q.Get("hi")
		if !q.Has("lo") || !q.Has("hi") {
			writeErr(w, fmt.Errorf("server: %w: query parameters lo and hi required", ErrBadConfig))
			return
		}
		e, err := g.Query(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		results, err := e.Range(lo, hi)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp := &RangeResponse{ID: r.PathValue("id"), Lo: lo, Hi: hi, Results: results}
		tamper(resp)
		rangeRoute.write(w, r, resp)
	})

	mux.HandleFunc("GET /feeds/{id}/roots", func(w http.ResponseWriter, r *http.Request) {
		e, err := g.Query(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		roots, err := e.Roots()
		if err != nil {
			writeErr(w, err)
			return
		}
		resp := &RootsResponse{ID: r.PathValue("id"), Shards: roots}
		tamper(resp)
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /feeds/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		ops, results, err := g.TraceResults(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, TraceResponse{Ops: ops, Results: results})
	})

	mux.HandleFunc("DELETE /feeds/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if clusterRoute(w, r, id, false) {
			return
		}
		if err := g.CloseFeed(id); err != nil {
			writeErr(w, err)
			return
		}
		if hc.Cluster != nil {
			// Tombstone the placement entry so every other node stops
			// tailing and drops its replica.
			hc.Cluster.ReleaseFeed(id)
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": id})
	})

	// Cluster surface: heartbeat/placement exchange, the node's cluster
	// view, and live feed migration.
	mux.HandleFunc("POST /cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if hc.Cluster == nil {
			clusterDisabled(w)
			return
		}
		var hb cluster.Heartbeat
		if !decodeBody(w, r, maxBody, &hb) {
			return
		}
		writeJSON(w, http.StatusOK, hc.Cluster.HandleHeartbeat(hb))
	})

	mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		if hc.Cluster == nil {
			writeJSON(w, http.StatusOK, cluster.Status{Enabled: false})
			return
		}
		writeJSON(w, http.StatusOK, hc.Cluster.Status())
	})

	mux.HandleFunc("GET /cluster/load", func(w http.ResponseWriter, r *http.Request) {
		resp := LoadResponse{Feeds: []obs.FeedLoad{}}
		if hc.Cluster == nil {
			// Standalone gateways still do per-feed load accounting;
			// the document just has no per-node breakdown.
			resp.Feeds = g.Load().Snapshot()
			writeJSON(w, http.StatusOK, resp)
			return
		}
		resp.Node = hc.Cluster.Self()
		resp.Nodes = hc.Cluster.Loads()
		digests := make([][]obs.FeedLoad, 0, len(resp.Nodes))
		for _, nl := range resp.Nodes {
			digests = append(digests, nl.Loads)
		}
		resp.Feeds = obs.MergeLoads(digests...)
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /cluster/metrics", clusterMetricsHandler(g, hc.Cluster, slow))

	mux.HandleFunc("POST /cluster/feeds/{id}/move", func(w http.ResponseWriter, r *http.Request) {
		if hc.Cluster == nil {
			clusterDisabled(w)
			return
		}
		var req cluster.MoveRequest
		if !decodeBody(w, r, maxBody, &req) {
			return
		}
		feed := r.PathValue("id")
		// Migration runs on the owner; any other node proxies one hop.
		if e, ok := hc.Cluster.Placement(feed); ok && !e.Deleted && e.Owner != hc.Cluster.Self() {
			if r.Header.Get(cluster.ForwardedHeader) != "" {
				misdirected(w, fmt.Sprintf("cluster: feed %q is owned by %s", feed, e.Owner), e.Owner)
				return
			}
			body, _ := json.Marshal(req)
			hc.Cluster.CountForward()
			forwardToOwner(w, r, body, e.Owner, e.Epoch, hc.Cluster.Client(), nil)
			return
		}
		res, err := hc.Cluster.Move(feed, req.Target)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, cluster.ErrUnknownMember):
				status = http.StatusBadRequest
			case errors.Is(err, cluster.ErrNotOwner), errors.Is(err, cluster.ErrBusy):
				status = http.StatusConflict
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	return &streamHandler{next: mux, g: g, maxBody: maxBody}
}
