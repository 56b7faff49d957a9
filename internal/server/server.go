// Package server implements the multi-tenant GRuB feed gateway: many named
// feeds hosted in one process, each backed by a sharded feed engine
// (internal/shard) that hash-partitions the keyspace across N core.Feed
// shards, each owned by a dedicated worker goroutine fed through a mailbox
// channel. A feed's DO, SP and simulated chain are single-writer state;
// sharding by key makes the whole gateway race-free by construction —
// concurrency happens between feeds, between shards and at the HTTP layer,
// never inside one shard. An unsharded feed (Shards <= 1) is exactly PR 1's
// one-worker-per-feed gateway.
//
// Started with a data directory (GatewayOptions.DataDir, grubd's
// -data-dir), the gateway is durable: every applied batch is logged through
// the per-shard kvstore write-ahead log before it executes, snapshots
// compact the logs, and a restart recovers every feed — same keys, same
// policy decisions going forward, same cumulative Gas (see internal/shard's
// persistence layer and the docs/ARCHITECTURE.md recovery walkthrough).
//
// The package exposes both a Go API (Gateway, for embedding) and an HTTP
// API (NewHandler + Client, served by cmd/grubd), JSON by default with
// binary encodings for authenticated reads and op batches (docs/API.md):
//
//	POST   /feeds               create a feed from a FeedConfig
//	GET    /feeds               list feed IDs
//	GET    /info                gateway info (version, persistence mode, data dir)
//	GET    /healthz             liveness probe (feed count, version)
//	POST   /feeds/{id}/ops      execute a batch of read/write/scan ops
//	GET    /feeds/{id}/get      authenticated point read with Merkle proof
//	GET    /feeds/{id}/range    authenticated key-range scan with proofs
//	GET    /feeds/{id}/roots    per-shard trust anchors (root, count, height)
//	GET    /feeds/{id}/stats    gas counters and replication state (aggregate)
//	GET    /feeds/{id}/shards   per-shard stats breakdown
//	GET    /feeds/{id}/trace    serialized op order (when RecordTrace is set)
//	POST   /feeds/{id}/snapshot force a durable snapshot (persistent gateways)
//	DELETE /feeds/{id}          close a feed
//
// The /get, /range and /roots routes are the authenticated read path: every
// answer carries Merkle proofs against per-shard (root, count) anchors, so
// an untrusted gateway can serve them to verifying light clients
// (VerifyingClient) — see internal/query.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/obs"
	"grub/internal/policy"
	"grub/internal/query"
	"grub/internal/shard"
	"grub/internal/sim"
)

// Sentinel errors. The HTTP layer maps them to status codes with errors.Is,
// so classification never depends on the text of a user-supplied feed ID.
var (
	// ErrUnknownFeed: the named feed does not exist (or was closed).
	ErrUnknownFeed = errors.New("unknown feed")
	// ErrFeedExists: a feed with that ID already exists.
	ErrFeedExists = errors.New("feed already exists")
	// ErrBadConfig: the feed config or request is invalid.
	ErrBadConfig = errors.New("bad config")
	// ErrClosed: the gateway is shut down.
	ErrClosed = errors.New("gateway closed")
)

// Op, OpResult and the batch execution path live in core (the batch-op
// layer); the gateway re-exports them so its wire API is self-contained.
type (
	// Op is one operation in a batch. Type is "read", "write" or "scan".
	Op = core.Op
	// OpResult reports one executed operation.
	OpResult = core.OpResult
)

// FeedConfig describes a feed to create.
type FeedConfig struct {
	ID string `json:"id"`
	// Policy selects the replication decision algorithm: "memoryless"
	// (default), "memorizing", "bl1" (never replicate) or "bl2" (always).
	Policy string `json:"policy,omitempty"`
	// K is the policy parameter of Equation 1 (default 2).
	K int `json:"k,omitempty"`
	// Shards hash-partitions the feed's keyspace across this many
	// independent shards, each with its own chain, gas meter and policy
	// state; batches scatter-gather across them (internal/shard). 0 or 1
	// means unsharded.
	Shards int `json:"shards,omitempty"`
	// EpochOps, MaxReplicas and DeferPromotions mirror core.Options.
	EpochOps        int  `json:"epochOps,omitempty"`
	MaxReplicas     int  `json:"maxReplicas,omitempty"`
	DeferPromotions bool `json:"deferPromotions,omitempty"`
	// RecordTrace keeps the serialized op order (per shard) in memory so it
	// can be fetched from /feeds/{id}/trace and replayed single-threaded
	// (the equivalence tests do exactly that). Off by default: the trace
	// grows without bound.
	RecordTrace bool `json:"recordTrace,omitempty"`
}

// feedParts resolves a config into the policy and options every feed
// constructor (fresh or restored) shares.
func feedParts(cfg FeedConfig) (policy.Policy, core.Options, error) {
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	var pol policy.Policy
	noADS := false
	switch cfg.Policy {
	case "", "memoryless":
		pol = policy.NewMemoryless(k)
	case "memorizing":
		pol = policy.NewMemorizing(k, 1)
	case "bl1", "never":
		pol = policy.Never{}
	case "bl2", "always":
		pol = policy.Always{}
		noADS = true
	default:
		return nil, core.Options{}, fmt.Errorf("server: %w: unknown policy %q", ErrBadConfig, cfg.Policy)
	}
	opts := core.Options{
		EpochOps:        cfg.EpochOps,
		MaxReplicas:     cfg.MaxReplicas,
		DeferPromotions: cfg.DeferPromotions,
		NoADS:           noADS,
	}
	return pol, opts, nil
}

// newFeedChain builds the fresh simulated chain a gateway feed runs on.
func newFeedChain() *chain.Chain {
	return chain.New(sim.NewClock(0), chain.DefaultParams(), gas.DefaultSchedule())
}

// NewFeed builds the single feed a config describes (ignoring Shards), on a
// fresh simulated chain. The shard workers use it once per shard;
// single-threaded replays (tests, the bench equivalence check) use it to
// build the reference feed the same way.
func NewFeed(cfg FeedConfig) (*core.Feed, error) {
	pol, opts, err := feedParts(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewFeed(newFeedChain(), pol, opts), nil
}

// RestoreFeedFromConfig rebuilds one feed from a snapshot, wired exactly as
// NewFeed would wire it for the same config. The shard recovery path uses it
// to reconstruct each shard after a restart.
func RestoreFeedFromConfig(cfg FeedConfig, snap *core.FeedSnapshot) (*core.Feed, error) {
	pol, opts, err := feedParts(cfg)
	if err != nil {
		return nil, err
	}
	return core.RestoreFeed(newFeedChain(), pol, opts, snap)
}

// NewShardedFeed builds the sharded feed engine a config describes: Shards
// identically-configured feeds (each on its own chain) behind one
// scatter-gather front. It is how the gateway hosts every in-memory feed.
func NewShardedFeed(cfg FeedConfig) (*shard.ShardedFeed, error) {
	return newShardedFeed(cfg, nil, 0, nil, nil)
}

// newShardedFeed builds a feed's shard engine, durable when persist is
// non-nil (in which case whatever state persist.Dir already holds is
// recovered first). Every gateway feed publishes read views and keeps a
// replication log: the authenticated read path (/feeds/{id}/get, /range,
// /roots) and the log-shipping surface (/repl/*) are part of the serving
// surface, not opt-ins — any gateway can lead followers. stages wires the
// feed's pipeline-stage latency histograms (nil disables stage timing);
// load wires the feed's ops/gas rate meter (nil disables load accounting).
func newShardedFeed(cfg FeedConfig, persist *shard.PersistOptions, replRetain int, stages obs.FeedStages, load *obs.RateMeter) (*shard.ShardedFeed, error) {
	if _, _, err := feedParts(cfg); err != nil {
		return nil, err // reject bad configs before touching disk
	}
	restore := func(_ int, snap *core.FeedSnapshot) (*core.Feed, error) {
		return RestoreFeedFromConfig(cfg, snap)
	}
	if persist != nil {
		persist.Restore = restore
	}
	return shard.New(
		shard.Options{
			Shards: cfg.Shards, RecordTrace: cfg.RecordTrace,
			Views: true, Persist: persist,
			Repl: true, ReplRetain: replRetain, Restore: restore,
			Stages: stages, Load: load,
		},
		func(int) (*core.Feed, error) { return NewFeed(cfg) },
	)
}

// Stats is the gateway's per-feed report: the aggregate feed snapshot plus
// the gateway-level op accounting it needs to express gas/op. For a sharded
// feed the Feed snapshot is the field-wise sum over shards; the per-shard
// breakdown is served by ShardStats (GET /feeds/{id}/shards).
type Stats struct {
	ID      string         `json:"id"`
	Shards  int            `json:"shards"`
	Ops     int            `json:"ops"`
	Batches int            `json:"batches"`
	Feed    core.FeedStats `json:"feed"`
	// GasPerOp is feed-layer Gas net of genesis divided by executed ops.
	GasPerOp float64 `json:"gasPerOp"`
	// Persist reports durability counters summed over shards (nil on an
	// in-memory gateway).
	Persist *shard.PersistStats `json:"persist,omitempty"`
}

// feedEntry is one hosted feed: its engine plus the config it was created
// from (the config is what the manifest persists and what recovery rebuilds
// from).
type feedEntry struct {
	sf  *shard.ShardedFeed
	cfg FeedConfig
	dir string // on-disk store, "" for in-memory feeds
}

// Gateway hosts many feeds and routes batches to their shard engines. All
// methods are safe for concurrent use.
type Gateway struct {
	opts GatewayOptions

	// reg is the gateway's metrics registry; pipeline owns the per-feed,
	// per-stage batch latency histograms registered on it. Both live for
	// the gateway's lifetime (histograms survive feed deletion — series
	// are cheap and scrape continuity matters more).
	reg      *obs.Registry
	pipeline *obs.Pipeline

	// load tracks each feed's recent ops/gas throughput (sliding-window
	// EWMA); the shard workers feed it per batch, and GET /cluster/load
	// plus the grub_feed_load_* gauges read it. Unlike the pipeline
	// histograms, meters die with their feed (Forget on CloseFeed) — a
	// deleted feed's load is zero, not frozen.
	load *obs.LoadTracker

	// start anchors grub_uptime_seconds.
	start time.Time

	// createMu serializes feed creation/removal so two creates of the same
	// ID never race on one on-disk store directory.
	createMu sync.Mutex
	mu       sync.RWMutex
	feeds    map[string]*feedEntry
	closed   bool
	streams  streamSet
}

// Metrics returns the gateway's metrics registry (GET /metrics renders it).
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Pipeline returns the gateway's per-feed stage-latency histograms. A
// follower replicating into this gateway should observe its fetch/verify
// stages here (a cluster node's peer followers get it through
// cluster.Local) so one scrape covers the whole node.
func (g *Gateway) Pipeline() *obs.Pipeline { return g.pipeline }

// Load returns the gateway's per-feed load tracker (ops/gas throughput
// EWMAs). /metrics renders its snapshot as the grub_feed_load_* gauges,
// which GET /cluster/load reads back from every member; a standalone
// gateway's /cluster/load ranks the snapshot itself.
func (g *Gateway) Load() *obs.LoadTracker { return g.load }

// Uptime reports how long this gateway has been up (grub_uptime_seconds).
func (g *Gateway) Uptime() time.Duration { return time.Since(g.start) }

// NewGateway returns an empty in-memory gateway.
func NewGateway() *Gateway {
	g, _ := NewGatewayWithOptions(GatewayOptions{}) // no data dir: cannot fail
	return g
}

// CreateFeed builds the (possibly sharded) feed cfg describes and starts
// its workers. On a persistent gateway the feed's config is recorded in the
// data directory's manifest first, so a crash at any point either recovers
// the feed (possibly empty) or never knew it.
func (g *Gateway) CreateFeed(cfg FeedConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("server: %w: feed id required", ErrBadConfig)
	}
	g.createMu.Lock()
	defer g.createMu.Unlock()
	g.mu.RLock()
	closed := g.closed
	_, exists := g.feeds[cfg.ID]
	g.mu.RUnlock()
	if closed {
		return fmt.Errorf("server: %w", ErrClosed)
	}
	if exists {
		return fmt.Errorf("server: %w: %q", ErrFeedExists, cfg.ID)
	}
	entry := &feedEntry{cfg: cfg}
	var persist *shard.PersistOptions
	if g.persistent() {
		entry.dir = g.feedDir(cfg.ID)
		persist = g.persistOptions(entry.dir)
		if err := g.rewriteManifest(cfg.ID, &cfg); err != nil {
			return err
		}
	}
	sf, err := newShardedFeed(cfg, persist, g.opts.ReplRetain, g.pipeline.Feed(cfg.ID), g.load.Meter(cfg.ID))
	if err != nil {
		if g.persistent() {
			g.rewriteManifest(cfg.ID, nil) // roll the reservation back
		}
		g.load.Forget(cfg.ID)
		return err
	}
	entry.sf = sf
	g.mu.Lock()
	g.feeds[cfg.ID] = entry
	g.mu.Unlock()
	return nil
}

// Feeds lists feed IDs, sorted.
func (g *Gateway) Feeds() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.feeds))
	for id := range g.feeds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// lookup resolves a feed by ID.
func (g *Gateway) lookup(id string) (*shard.ShardedFeed, error) {
	g.mu.RLock()
	e, ok := g.feeds[id]
	g.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: %w: %q", ErrUnknownFeed, id)
	}
	return e.sf, nil
}

// wrapClosed maps the shard engine's closed error onto the gateway's
// unknown-feed sentinel (a closed feed is indistinguishable from a missing
// one at the API surface).
func wrapClosed(id string, err error) error {
	if errors.Is(err, shard.ErrClosed) {
		return fmt.Errorf("server: %w: %q (closed)", ErrUnknownFeed, id)
	}
	return err
}

// Do executes a batch of ops against one feed. The batch scatter-gathers
// across the feed's shards; each shard serializes its sub-batches, so
// batches on one shard are atomic per shard and batches on different shards
// or feeds run in parallel.
func (g *Gateway) Do(id string, ops []Op) ([]OpResult, error) {
	return g.DoCtx(context.Background(), id, ops)
}

// DoCtx is Do with a context carrying observability state: a trace
// attached via obs.WithTrace collects per-stage spans as the batch moves
// through the shard pipeline (the HTTP layer attaches one per request
// when slow-op logging or the X-Grub-Trace header is in play).
func (g *Gateway) DoCtx(ctx context.Context, id string, ops []Op) ([]OpResult, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return nil, err
	}
	results, err := sf.DoCtx(ctx, ops)
	if err != nil {
		return nil, wrapClosed(id, err)
	}
	return results, nil
}

// Stats snapshots one feed's aggregate counters.
func (g *Gateway) Stats(id string) (Stats, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return Stats{}, err
	}
	st, err := sf.Stats()
	if err != nil {
		return Stats{}, wrapClosed(id, err)
	}
	return Stats{
		ID:       id,
		Shards:   st.Shards,
		Ops:      st.Ops,
		Batches:  st.Batches,
		Feed:     st.Feed,
		GasPerOp: st.GasPerOp,
		Persist:  st.Persist,
	}, nil
}

// Query returns one feed's snapshot-isolated query engine — the
// authenticated read path. Reads served from it carry Merkle proofs and
// never send the feed's shard workers a message (a read may wait for the
// one batch in flight on its shard; see package query).
func (g *Gateway) Query(id string) (*query.Engine, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return nil, err
	}
	e := sf.Engine()
	if e == nil {
		return nil, fmt.Errorf("server: %w: feed %q has no query engine", ErrBadConfig, id)
	}
	return e, nil
}

// Snapshot forces an immediate durable snapshot of one feed (every shard
// serializes its state and compacts its log). It fails with
// shard.ErrNotPersistent on an in-memory gateway.
func (g *Gateway) Snapshot(id string) (shard.PersistStats, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return shard.PersistStats{}, err
	}
	ps, err := sf.Snapshot()
	if err != nil {
		return shard.PersistStats{}, wrapClosed(id, err)
	}
	return ps, nil
}

// ShardStats returns the per-shard breakdown of one feed's counters.
func (g *Gateway) ShardStats(id string) ([]shard.ShardStat, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return nil, err
	}
	st, err := sf.Stats()
	if err != nil {
		return nil, wrapClosed(id, err)
	}
	return st.PerShard, nil
}

// ShardHealth names one unhealthy shard on the health surface
// (GET /healthz): a shard that detected divergence and permanently
// halted rather than fork.
type ShardHealth struct {
	Feed  string `json:"feed"`
	Shard int    `json:"shard"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Halted scans every feed for shards that refused to continue (a
// replicated apply whose post-apply state disagreed with the leader's
// anchor). The list is sorted by feed then shard; empty means healthy.
func (g *Gateway) Halted() []ShardHealth {
	var out []ShardHealth
	for _, id := range g.Feeds() {
		per, err := g.ShardStats(id)
		if err != nil {
			continue // closed mid-scan
		}
		for _, st := range per {
			if st.Diverged != "" {
				out = append(out, ShardHealth{Feed: id, Shard: st.Shard, State: "halted", Error: st.Diverged})
			}
		}
	}
	return out
}

// TraceResults returns the serialized op order executed so far — shard 0's
// sub-trace, then shard 1's, and so on (splitting by shard.ShardOf recovers
// each shard's exact order) — together with the per-op results each op
// produced when it executed (index-aligned). It is empty unless the feed
// was created with RecordTrace. The sharded equivalence test replays the
// trace per shard and compares against these.
func (g *Gateway) TraceResults(id string) ([]Op, []OpResult, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	ops, results, err := sf.TraceResults()
	if err != nil {
		return nil, nil, wrapClosed(id, err)
	}
	return ops, results, nil
}

// CloseFeed stops a feed's shard workers and forgets it. On a persistent
// gateway the feed also leaves the manifest and its store directory is
// deleted: an explicitly closed feed must not resurrect on restart.
func (g *Gateway) CloseFeed(id string) error {
	g.createMu.Lock()
	defer g.createMu.Unlock()
	g.mu.Lock()
	e, ok := g.feeds[id]
	delete(g.feeds, id)
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: %w: %q", ErrUnknownFeed, id)
	}
	g.load.Forget(id)
	e.sf.Close()
	if e.dir != "" {
		if err := g.rewriteManifest(id, nil); err != nil {
			return err
		}
		return shard.RemoveStore(e.dir)
	}
	return nil
}

// Close stops every feed; persistent feeds take a final snapshot and flush
// their stores on the way down (drain-then-flush), and the manifest keeps
// every feed for the next start. The gateway accepts no new feeds
// afterwards. Holding createMu serializes shutdown against in-flight
// CreateFeed calls: a create either completes before the drain (and its
// feed is closed here) or observes closed and never starts workers.
func (g *Gateway) Close() {
	g.shutdown(func(sf *shard.ShardedFeed) { sf.Close() })
}

// Kill stops every feed WITHOUT final snapshots or store flushes,
// simulating a process crash for the recovery tests; production shutdown is
// Close.
func (g *Gateway) Kill() {
	g.shutdown(func(sf *shard.ShardedFeed) { sf.Kill() })
}

func (g *Gateway) shutdown(stop func(*shard.ShardedFeed)) {
	// Streams answer the frames they are serving while the feeds still run.
	g.streams.drain()
	g.createMu.Lock()
	defer g.createMu.Unlock()
	g.mu.Lock()
	g.closed = true
	feeds := make([]*feedEntry, 0, len(g.feeds))
	for id, e := range g.feeds {
		feeds = append(feeds, e)
		delete(g.feeds, id)
	}
	g.mu.Unlock()
	for _, e := range feeds {
		stop(e.sf)
	}
}
