package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"grub/internal/repl"
	"grub/internal/shard"
)

// Replication: every gateway serves the log-shipping surface (it can lead
// followers without any configuration), and any gateway can replicate into
// itself: *Gateway is the repl.Target a repl.Follower (and a cluster
// node's peer followers) replicates into. The
// per-shard mechanics — the anchored in-memory log, the verified apply and
// the bootstrap reset — live in internal/shard; the protocol and the tailer
// live in internal/repl. This file adapts the gateway between them.

// ReplConfigs returns every hosted feed's config, sorted by ID — the
// follower bootstrap surface (GET /repl/feeds).
func (g *Gateway) ReplConfigs() []FeedConfig {
	g.mu.RLock()
	defer g.mu.RUnlock()
	cfgs := make([]FeedConfig, 0, len(g.feeds))
	for _, e := range g.feeds {
		cfgs = append(cfgs, e.cfg)
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	return cfgs
}

// ReplLog serves one page of a feed shard's replication log above the
// cursor from (GET /repl/feeds/{id}/shards/{shard}/log).
func (g *Gateway) ReplLog(id string, shardIdx int, from uint64, max int) (repl.LogPage, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return repl.LogPage{}, err
	}
	page, err := sf.ReplPage(shardIdx, from, max)
	if err != nil {
		return repl.LogPage{}, wrapShardErr(id, err)
	}
	return page, nil
}

// ReplSnapshot serves a consistent bootstrap snapshot of one feed shard
// (GET /repl/feeds/{id}/shards/{shard}/snapshot).
func (g *Gateway) ReplSnapshot(id string, shardIdx int) (*repl.Snapshot, error) {
	sf, err := g.lookup(id)
	if err != nil {
		return nil, err
	}
	snap, err := sf.ReplSnapshot(shardIdx)
	if err != nil {
		return nil, wrapShardErr(id, err)
	}
	return snap, nil
}

// wrapShardErr maps shard-layer errors onto the gateway's HTTP-facing
// sentinels: a bad shard index is a bad request, a closed feed is unknown.
func wrapShardErr(id string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, shard.ErrClosed) {
		return wrapClosed(id, err)
	}
	return fmt.Errorf("%w: %v", ErrBadConfig, err)
}

// ReplTarget returns the gateway as the repl.Target a Follower replicates
// into.
func (g *Gateway) ReplTarget() repl.Target { return g }

// EnsureFeed creates the feed the leader's config describes, or adopts a
// local feed (typically recovered from the follower's own data directory)
// when its config matches exactly. A config mismatch is an error: silently
// replicating a leader's log into a differently-configured engine could
// only end in a divergence halt later.
func (g *Gateway) EnsureFeed(id string, raw json.RawMessage) error {
	var cfg FeedConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("server: decode leader feed config: %w", err)
	}
	if cfg.ID != id {
		return fmt.Errorf("server: %w: leader config names feed %q, expected %q", ErrBadConfig, cfg.ID, id)
	}
	if existing, ok := g.configOf(id); ok {
		if existing != cfg {
			return fmt.Errorf("server: %w: feed %q exists locally with a different config (%+v vs leader %+v)",
				ErrBadConfig, id, existing, cfg)
		}
		return nil
	}
	err := g.CreateFeed(cfg)
	if err == nil {
		return nil
	}
	// Lost a race with another creator: accept if the configs agree.
	if existing, ok := g.configOf(id); ok && existing == cfg {
		return nil
	}
	return err
}

// Feed resolves a hosted feed's replication interface.
func (g *Gateway) Feed(id string) (repl.Feed, error) {
	return g.lookup(id)
}

// configOf returns a hosted feed's config.
func (g *Gateway) configOf(id string) (FeedConfig, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.feeds[id]
	if !ok {
		return FeedConfig{}, false
	}
	return e.cfg, true
}
