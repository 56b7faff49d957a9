package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"grub/internal/cluster"
	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/repl"
	"grub/internal/shard"
	"grub/internal/stream"
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
// throughput, ranked hottest-first. Nodes is one row per member, read from
// that member's grub_feed_load_* gauges; Feeds is the cluster-wide merge
// (per feed, summed over the rows that were read). On a non-clustered
// gateway Feeds is the local tracker's snapshot and Nodes is empty.
type LoadResponse struct {
	Node  string         `json:"node,omitempty"`
	Nodes []NodeLoad     `json:"nodes,omitempty"`
	Feeds []obs.FeedLoad `json:"feeds"`
}

// NodeLoad is one member's row of the GET /cluster/load document.
type NodeLoad struct {
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	// AgeMS is 0 when the member's load gauges were read for this answer
	// and -1 when the member did not answer (its Loads are then empty).
	AgeMS int64          `json:"ageMs"`
	Alive bool           `json:"alive"`
	Loads []obs.FeedLoad `json:"loads,omitempty"`
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

// call is one request to a route, its fields as a stream frame carries them
// or as the HTTP adapter reads them from the request's path, query and
// headers. A stream reuses its call frame to frame, and with it the storage
// the get route answers into.
type call struct {
	stream.Request
	ctx context.Context
	get getAnswer
}

// getAnswer is the get route's answer storage: the response and the result
// it carries, proved in place.
type getAnswer struct {
	resp GetResponse
	res  query.GetStorage
}

func (c *call) forwarded() bool { return c.Flags&stream.Forwarded != 0 }

// reply is a route's answer: the head every answer frame carries and a body
// in a pooled buffer. Encoders write into it.
type reply struct {
	stream.Head
	body *[]byte
}

func (rep *reply) Write(p []byte) (int, error) {
	*rep.body = append(*rep.body, p...)
	return len(p), nil
}

// json answers status with v in JSON, in place of any body written so far.
func (rep *reply) json(status int, v any) {
	rep.Status, rep.ContentType = status, stream.JSONMediaType
	*rep.body = (*rep.body)[:0]
	json.NewEncoder(rep).Encode(v)
}

func (rep *reply) err(err error) {
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
	rep.json(status, errorBody{Error: err.Error()})
}

// tooLarge answers a body past the cap.
func (rep *reply) tooLarge(maxBytes int64) {
	rep.json(http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBytes)})
}

// misdirected answers a request that was already forwarded once and still
// reached a node that is not the feed's owner: 421 with the owner in the
// Leader header and body, never a second proxy hop.
func (rep *reply) misdirected(msg, owner string) {
	rep.json(http.StatusMisdirectedRequest, errorBody{Error: msg, Leader: owner})
	rep.Leader = owner
}

// unavailable answers 503 with Retry-After, naming the owner when there is
// one.
func (rep *reply) unavailable(msg, owner string) {
	rep.json(http.StatusServiceUnavailable, errorBody{Error: msg, Leader: owner})
	rep.RetryAfter = 1
}

// clusterDisabled answers a /cluster/* route on a gateway without a
// cluster node.
func (rep *reply) clusterDisabled() {
	rep.json(http.StatusServiceUnavailable,
		errorBody{Error: "cluster: clustering disabled (start grubd with -join)"})
}

// decodeBody decodes a JSON body into v, answering 400 when it does not
// decode. It reports whether it did.
func decodeBody(c *call, rep *reply, v any) bool {
	if err := json.NewDecoder(bytes.NewReader(c.Body)).Decode(v); err != nil {
		rep.json(http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode: %v", err)})
		return false
	}
	return true
}

// shardIdx parses a shard path segment.
func shardIdx(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("server: %w: bad shard %q", ErrBadConfig, s)
	}
	return n, nil
}

// api is the gateway's routes: the named handlers, indexed by stream route,
// and what they share. Its mux registers every route of the stream package's
// table.
type api struct {
	*http.ServeMux
	g       *Gateway
	node    *cluster.Node // nil outside cluster mode
	tamper  func(any)     // HandlerConfig.TamperQuery
	maxBody int64
	slow    *slowLogger
	get     *readRoute
	ranges  *readRoute
	serve   [stream.NumRoutes]func(*api, *call, *reply)
}

// handlers serves each route of the stream package's table.
var handlers = [stream.NumRoutes]func(*api, *call, *reply){
	stream.RouteOps:            (*api).ops,
	stream.RouteGet:            (*api).getKey,
	stream.RouteRange:          (*api).getRange,
	stream.RouteLog:            (*api).replLog,
	stream.RouteCreateFeed:     (*api).createFeed,
	stream.RouteListFeeds:      (*api).listFeeds,
	stream.RouteStats:          (*api).stats,
	stream.RouteLatency:        (*api).latency,
	stream.RouteShards:         (*api).shards,
	stream.RouteSnapshot:       (*api).snapshot,
	stream.RouteInfo:           (*api).info,
	stream.RouteHealth:         (*api).health,
	stream.RouteMetrics:        (*api).metrics,
	stream.RouteReplFeeds:      (*api).replFeeds,
	stream.RouteReplSnapshot:   (*api).replSnapshot,
	stream.RouteRoots:          (*api).roots,
	stream.RouteTrace:          (*api).trace,
	stream.RouteCloseFeed:      (*api).closeFeed,
	stream.RouteHeartbeat:      (*api).heartbeat,
	stream.RouteClusterStatus:  (*api).clusterStatus,
	stream.RouteClusterLoad:    (*api).clusterLoad,
	stream.RouteClusterMetrics: (*api).clusterMetrics,
	stream.RouteMove:           (*api).move,
}

// NewHandler exposes a gateway over HTTP with default limits.
func NewHandler(g *Gateway) http.Handler {
	return NewHandlerConfig(g, HandlerConfig{})
}

// NewHandlerConfig exposes a gateway over HTTP, and over Go-to-Go streams
// (docs/API.md) opened at stream.Path; both reach the same handlers.
func NewHandlerConfig(g *Gateway, hc HandlerConfig) http.Handler {
	a := &api{
		ServeMux: http.NewServeMux(),
		g:        g, node: hc.Cluster, tamper: hc.TamperQuery, maxBody: hc.MaxBodyBytes,
		slow:   newSlowLogger(hc.SlowOp, hc.SlowOpWriter),
		get:    newReadRoute(g.Metrics(), "get"),
		ranges: newReadRoute(g.Metrics(), "range"),
		serve:  handlers,
	}
	if a.maxBody <= 0 {
		a.maxBody = DefaultMaxBodyBytes
	}
	for rt := stream.Route(1); rt < stream.NumRoutes; rt++ {
		a.HandleFunc(rt.Pattern(), func(w http.ResponseWriter, r *http.Request) { a.serveHTTP(rt, w, r) })
	}
	a.HandleFunc(http.MethodGet+" "+stream.Path, a.openStream)
	return a
}

// serveHTTP serves r on route rt: the call's fields come from r's path,
// query and headers, and its body is read under the cap.
func (a *api) serveHTTP(rt stream.Route, w http.ResponseWriter, r *http.Request) {
	rep := reply{body: stream.GetBuf()}
	defer stream.PutBuf(rep.body)
	if c, ok := a.httpCall(rt, w, r, &rep); ok {
		a.serve[rt](a, c, &rep)
	}
	rep.writeHTTP(w)
}

// writeHTTP sends rep as an HTTP answer, its head's fields as headers.
func (rep *reply) writeHTTP(w http.ResponseWriter) {
	retryAfter := ""
	if rep.RetryAfter > 0 {
		retryAfter = strconv.Itoa(rep.RetryAfter)
	}
	for _, kv := range [...][2]string{{"Content-Type", rep.ContentType}, {"Leader", rep.Leader},
		{"Retry-After", retryAfter}, {obs.TraceHeader, rep.TraceID}, {"Content-Length", strconv.Itoa(len(*rep.body))}} {
		if kv[1] != "" {
			w.Header().Set(kv[0], kv[1])
		}
	}
	w.WriteHeader(cmp.Or(rep.Status, http.StatusOK))
	w.Write(*rep.body)
}

// httpCall reads r into a call on route rt. When r does not make one it
// answers rep and reports false.
func (a *api) httpCall(rt stream.Route, w http.ResponseWriter, r *http.Request, rep *reply) (*call, bool) {
	h, q := r.Header, r.URL.Query()
	c := &call{ctx: r.Context()}
	c.Route, c.Feed, c.TraceID = rt, r.PathValue("id"), h.Get(obs.TraceHeader)
	if media := rt.Media(); media != "" && !strings.Contains(h.Get("Accept"), media) {
		c.Flags |= stream.JSONAnswer
	}
	var err error
	switch rt {
	case stream.RouteOps:
		if h.Get("Content-Type") != OpsMediaType {
			c.Flags |= stream.JSONBody
		}
	case stream.RouteGet:
		c.Key = q.Get("key")
	case stream.RouteRange:
		if !q.Has("lo") || !q.Has("hi") {
			err = fmt.Errorf("server: %w: query parameters lo and hi required", ErrBadConfig)
		}
		c.Lo, c.Hi = q.Get("lo"), q.Get("hi")
	case stream.RouteReplSnapshot:
		c.Shard, err = shardIdx(r.PathValue("shard"))
	case stream.RouteLog:
		c.Shard, err = shardIdx(r.PathValue("shard"))
		if from := q.Get("from"); err == nil && from != "" {
			if c.From, err = strconv.ParseUint(from, 10, 64); err != nil {
				err = fmt.Errorf("server: %w: bad from %q", ErrBadConfig, from)
			}
		}
		if m := q.Get("max"); err == nil && m != "" {
			if c.Max, err = strconv.Atoi(m); err != nil || c.Max < 1 {
				err = fmt.Errorf("server: %w: bad max %q", ErrBadConfig, m)
			}
		}
	}
	if err != nil {
		rep.err(err)
		return nil, false
	}
	if c.Body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, a.maxBody)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			rep.tooLarge(a.maxBody)
		} else {
			rep.json(http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read body: %v", err)})
		}
		return nil, false
	}
	return c, true
}

// clusterRoute applies the cluster routing decision for a write-path call.
// It reports true when the call was fully answered here — proxied to the
// owner, fenced (503), quorumless (503) or misdirected (421 + Leader);
// false means "apply locally". traceOps marks the batch write path, whose
// forwards are trace-stitched.
func (a *api) clusterRoute(c *call, rep *reply, traceOps bool) bool {
	if a.node == nil {
		return false
	}
	rt := a.node.RouteWrite(c.Feed, c.Epoch, c.forwarded())
	switch rt.Kind {
	case cluster.RouteForward:
		a.node.CountForward()
		if traceOps {
			a.forwardOps(c, rep, rt.Owner, rt.Epoch)
		} else {
			a.forward(c, rep, rt.Owner, rt.Epoch, nil)
		}
		return true
	case cluster.RouteFenced, cluster.RouteUnavailable:
		rep.unavailable("cluster: "+rt.Reason, rt.Owner)
		return true
	case cluster.RouteMisdirected:
		rep.misdirected(fmt.Sprintf("cluster: feed %q is owned by %s", c.Feed, rt.Owner), rt.Owner)
		return true
	}
	return false
}

// forwardOps proxies a batch to the feed's owner with trace stitching: the
// proxy round trip becomes a `forward` span (and feeds the feed's
// forward-stage histogram), the owner's spans merge in from its answer, and
// an over-threshold round trip lands in this node's slow log as a single
// cross-node breakdown.
func (a *api) forwardOps(c *call, rep *reply, owner string, epoch uint64) {
	var tr *obs.Trace
	if c.TraceID != "" || a.slow != nil {
		tr = obs.NewTrace(c.TraceID)
		tr.SetNode(a.node.Self())
		rep.TraceID = tr.ID()
	}
	start := time.Now()
	a.forward(c, rep, owner, epoch, tr)
	dur := time.Since(start)
	a.g.Pipeline().Feed(c.Feed).Record(tr, obs.StageForward, -1, start, dur)
	if a.slow != nil && tr != nil {
		a.slow.maybeLog(tr, c.Feed, batchLen(c), dur)
	}
}

func (a *api) createFeed(c *call, rep *reply) {
	var cfg FeedConfig
	if !decodeBody(c, rep, &cfg) {
		return
	}
	if a.node != nil {
		// New feeds are placed by consistent hashing over the alive
		// members (existing placement wins for re-creates); only the
		// placed owner creates, then claims the feed in the map.
		owner := a.node.PlaceFeed(cfg.ID)
		switch {
		case owner == "":
			rep.unavailable("cluster: no alive member to place feed on", "")
			return
		case owner != a.node.Self() && c.forwarded():
			rep.misdirected(fmt.Sprintf("cluster: feed %q places on %s", cfg.ID, owner), owner)
			return
		case owner != a.node.Self():
			a.node.CountForward()
			if status := a.forward(c, rep, owner, 0, nil); status == http.StatusCreated {
				// Record the owner now so a write that follows the
				// create immediately routes there instead of missing
				// locally until the next heartbeat.
				a.node.NoteOwner(cfg.ID, owner)
			}
			return
		}
	}
	if err := a.g.CreateFeed(cfg); err != nil {
		rep.err(err)
		return
	}
	if a.node != nil {
		a.node.ClaimFeed(cfg.ID)
	}
	rep.json(http.StatusCreated, map[string]string{"id": cfg.ID})
}

func (a *api) listFeeds(c *call, rep *reply) {
	rep.json(http.StatusOK, map[string][]string{"feeds": a.g.Feeds()})
}

func (a *api) ops(c *call, rep *reply) {
	if a.clusterRoute(c, rep, true) {
		return
	}
	ops, err := decodeBatch(c)
	if err != nil {
		rep.json(http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode: %v", err)})
		return
	}
	// Trace the batch when the client asked for it (X-Grub-Trace) or
	// slow-op logging needs the span breakdown; everything else runs with
	// a nil trace and pays only nil checks. A forwarded batch carries the
	// ingress node's trace ID and parent-span reference, so the spans
	// recorded here stitch under that hop.
	var tr *obs.Trace
	if c.TraceID != "" || a.slow != nil {
		tr = obs.NewTrace(c.TraceID)
		if a.node != nil {
			tr.SetNode(a.node.Self())
		}
		if c.Parent != "" {
			tr.SetParent(c.Parent)
		}
		rep.TraceID = tr.ID()
	}
	ctx := obs.WithTrace(c.ctx, tr)
	start := time.Now()
	results, err := a.g.DoCtx(ctx, c.Feed, ops)
	if err != nil {
		rep.err(err)
		return
	}
	dur := time.Since(start)
	// Ingress covers the whole gateway round trip: scatter, every
	// per-shard stage, gather. The same window on a forwarded batch is
	// remote_apply — the owner-side half of the forward hop.
	stage := obs.StageIngress
	if c.forwarded() {
		stage = obs.StageRemoteApply
	}
	a.g.Pipeline().Feed(c.Feed).Record(tr, stage, -1, start, dur)
	if c.forwarded() && tr != nil {
		// Hand the full local breakdown back to the ingress node
		// (bounded; EncodeSpans drops tail spans past 8KiB).
		rep.Spans = obs.EncodeSpans(tr.Spans())
	}
	a.slow.maybeLog(tr, c.Feed, len(ops), dur)
	writeResults(c, rep, results)
}

func (a *api) latency(c *call, rep *reply) {
	if _, err := a.g.Stats(c.Feed); err != nil {
		rep.err(err) // 404 for unknown feeds, not empty histograms
		return
	}
	fs := a.g.Pipeline().Feed(c.Feed)
	resp := LatencyResponse{ID: c.Feed, Stages: map[string]StageLatency{}}
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
	rep.json(http.StatusOK, resp)
}

func (a *api) stats(c *call, rep *reply) {
	st, err := a.g.Stats(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	rep.json(http.StatusOK, st)
}

func (a *api) shards(c *call, rep *reply) {
	per, err := a.g.ShardStats(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	rep.json(http.StatusOK, ShardsResponse{ID: c.Feed, Shards: per})
}

func (a *api) snapshot(c *call, rep *reply) {
	ps, err := a.g.Snapshot(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	rep.json(http.StatusOK, SnapshotResponse{ID: c.Feed, Persist: ps})
}

func (a *api) info(c *call, rep *reply) {
	rep.json(http.StatusOK, InfoResponse{
		Version:    Version,
		Persistent: a.g.DataDir() != "",
		DataDir:    a.g.DataDir(),
		Feeds:      len(a.g.Feeds()),
	})
}

func (a *api) health(c *call, rep *reply) {
	resp := HealthResponse{
		OK:      true,
		Feeds:   len(a.g.Feeds()),
		Version: Version,
	}
	// Engine-side divergence halts (a replicated apply this gateway
	// refused) and, in cluster mode, tail-side halts both degrade the
	// probe: a halted shard serves a frozen view forever.
	resp.Degraded = a.g.Halted()
	if a.node != nil {
		type shardKey struct {
			feed  string
			shard int
		}
		seen := make(map[shardKey]bool, len(resp.Degraded))
		for _, d := range resp.Degraded {
			seen[shardKey{d.Feed, d.Shard}] = true
		}
		cs := a.node.Status()
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
	rep.json(status, resp)
}

// Replication surface: every gateway ships its per-shard log (leader role
// needs no configuration). Tail health is in /cluster/status.
func (a *api) replFeeds(c *call, rep *reply) {
	rep.json(http.StatusOK, ReplFeedsResponse{Feeds: a.g.ReplConfigs()})
}

// replLog answers a log fetch in the binary log encoding (repl.LogMediaType),
// with or without an Accept header.
func (a *api) replLog(c *call, rep *reply) {
	max := maxLogBatches
	if c.Max > 0 && c.Max < max {
		max = c.Max
	}
	page, err := a.g.ReplLog(c.Feed, c.Shard, c.From, max)
	if err != nil {
		rep.err(err)
		return
	}
	n := 32
	for i := range page.Entries {
		n += page.Entries[i].WireBytes()
	}
	rep.ContentType = repl.LogMediaType
	*rep.body = repl.AppendLogPage(slices.Grow(*rep.body, n), &page)
}

// replSnapshot answers a shard image in the binary image encoding
// (repl.ImageMediaType), with or without an Accept header.
func (a *api) replSnapshot(c *call, rep *reply) {
	snap, err := a.g.ReplSnapshot(c.Feed, c.Shard)
	if err != nil {
		rep.err(err)
		return
	}
	rep.ContentType = repl.ImageMediaType
	*rep.body = repl.AppendSnapshot(*rep.body, snap)
}

// tamperWith lets the rejection tests model a compromised gateway; it is the
// identity in production. It runs on the response struct, before either
// encoder sees it.
func (a *api) tamperWith(resp any) {
	if a.tamper != nil {
		a.tamper(resp)
	}
}

func (a *api) getKey(c *call, rep *reply) {
	if c.Key == "" {
		rep.err(fmt.Errorf("server: %w: query parameter key required", ErrBadConfig))
		return
	}
	e, err := a.g.Query(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	resp := &c.get.resp
	if a.tamper != nil { // a hook may write or keep what it is handed
		resp = new(GetResponse)
		resp.Result, err = e.Get(c.Key)
	} else {
		resp.Result, err = e.GetInto(c.Key, &c.get.res)
	}
	if err != nil {
		rep.err(err)
		return
	}
	resp.ID = c.Feed
	a.tamperWith(resp)
	a.get.write(c, rep, resp)
}

func (a *api) getRange(c *call, rep *reply) {
	e, err := a.g.Query(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	results, err := e.Range(c.Lo, c.Hi)
	if err != nil {
		rep.err(err)
		return
	}
	resp := &RangeResponse{ID: c.Feed, Lo: c.Lo, Hi: c.Hi, Results: results}
	a.tamperWith(resp)
	a.ranges.write(c, rep, resp)
}

func (a *api) roots(c *call, rep *reply) {
	e, err := a.g.Query(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	roots, err := e.Roots()
	if err != nil {
		rep.err(err)
		return
	}
	resp := &RootsResponse{ID: c.Feed, Shards: roots}
	a.tamperWith(resp)
	rep.json(http.StatusOK, resp)
}

func (a *api) trace(c *call, rep *reply) {
	ops, results, err := a.g.TraceResults(c.Feed)
	if err != nil {
		rep.err(err)
		return
	}
	rep.json(http.StatusOK, TraceResponse{Ops: ops, Results: results})
}

func (a *api) closeFeed(c *call, rep *reply) {
	if a.clusterRoute(c, rep, false) {
		return
	}
	if err := a.g.CloseFeed(c.Feed); err != nil {
		rep.err(err)
		return
	}
	if a.node != nil {
		// Tombstone the placement entry so every other node stops
		// tailing and drops its replica.
		a.node.ReleaseFeed(c.Feed)
	}
	rep.json(http.StatusOK, map[string]string{"closed": c.Feed})
}

// Cluster surface: heartbeat/placement exchange, the node's cluster view,
// and live feed migration.
func (a *api) heartbeat(c *call, rep *reply) {
	if a.node == nil {
		rep.clusterDisabled()
		return
	}
	var hb cluster.Heartbeat
	if decodeBody(c, rep, &hb) {
		rep.json(http.StatusOK, a.node.HandleHeartbeat(hb))
	}
}

func (a *api) clusterStatus(c *call, rep *reply) {
	if a.node == nil {
		rep.json(http.StatusOK, cluster.Status{Enabled: false})
		return
	}
	rep.json(http.StatusOK, a.node.Status())
}

func (a *api) move(c *call, rep *reply) {
	if a.node == nil {
		rep.clusterDisabled()
		return
	}
	var req cluster.MoveRequest
	if !decodeBody(c, rep, &req) {
		return
	}
	// Migration runs on the owner; any other node proxies one hop.
	if e, ok := a.node.Placement(c.Feed); ok && !e.Deleted && e.Owner != a.node.Self() {
		if c.forwarded() {
			rep.misdirected(fmt.Sprintf("cluster: feed %q is owned by %s", c.Feed, e.Owner), e.Owner)
			return
		}
		a.node.CountForward()
		a.forward(c, rep, e.Owner, e.Epoch, nil)
		return
	}
	res, err := a.node.Move(c.Feed, req.Target)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, cluster.ErrUnknownMember):
			status = http.StatusBadRequest
		case errors.Is(err, cluster.ErrNotOwner), errors.Is(err, cluster.ErrBusy):
			status = http.StatusConflict
		}
		rep.json(status, errorBody{Error: err.Error()})
		return
	}
	rep.json(http.StatusOK, res)
}
