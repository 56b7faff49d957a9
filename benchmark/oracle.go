package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"

	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/query"
	"grub/internal/server"
)

// resultDigest folds every op result of a feed's request stream, in order,
// into one hash, so the gateway's answers and the reference replay's can be
// compared without keeping either.
type resultDigest struct{ h hash.Hash64 }

func newResultDigest() *resultDigest { return &resultDigest{h: fnv.New64a()} }

func (d *resultDigest) add(results []core.OpResult) {
	for _, r := range results {
		d.h.Write([]byte(r.Key))
		if r.Found {
			d.h.Write([]byte{1})
		} else {
			d.h.Write([]byte{0})
		}
		d.h.Write(r.Value)
		d.h.Write([]byte(r.Err))
		d.h.Write([]byte{0xff})
	}
}

func (d *resultDigest) sum() uint64 { return d.h.Sum64() }

// reference is a single-threaded replay of one feed's exact op sequence
// through server.NewFeed + core.ApplyOps, one bare feed per shard — the
// state a correct gateway must end in.
type reference struct {
	feeds  []*core.Feed
	base   []gas.Gas // per shard, genesis Gas
	ops    int
	digest *resultDigest
}

func newReference(cfg server.FeedConfig) (*reference, error) {
	n := max(cfg.Shards, 1)
	r := &reference{digest: newResultDigest()}
	for i := 0; i < n; i++ {
		f, err := server.NewFeed(cfg)
		if err != nil {
			return nil, err
		}
		r.feeds = append(r.feeds, f)
		r.base = append(r.base, f.FeedGas())
	}
	return r, nil
}

// apply executes one batch the way the sharded engine does: split by key
// hash, each shard's sub-batch in order, results merged back by position.
func (r *reference) apply(ops []core.Op, digest bool) {
	r.ops += len(ops)
	n := len(r.feeds)
	if n == 1 {
		res := core.ApplyOps(r.feeds[0], ops)
		if digest {
			r.digest.add(res)
		}
		return
	}
	sub := make([][]core.Op, n)
	pos := make([][]int, n)
	for i, op := range ops {
		sh := query.ShardOf(op.Key, n)
		sub[sh] = append(sub[sh], op)
		pos[sh] = append(pos[sh], i)
	}
	out := make([]core.OpResult, len(ops))
	for sh := range sub {
		for j, res := range core.ApplyOps(r.feeds[sh], sub[sh]) {
			out[pos[sh][j]] = res
		}
	}
	if digest {
		r.digest.add(out)
	}
}

// feedGas is the feed-layer Gas net of genesis, summed over shards.
func (r *reference) feedGas() gas.Gas {
	var g gas.Gas
	for i, f := range r.feeds {
		g += f.FeedGas() - r.base[i]
	}
	return g
}

// finalState is what the oracle compares between a gateway feed and its
// reference: executed ops, feed Gas net of genesis and each shard's
// (root, count) anchor.
type finalState struct {
	ops   int
	gas   gas.Gas
	roots []query.RootInfo
}

func (r *reference) state() finalState {
	st := finalState{ops: r.ops, gas: r.feedGas()}
	for i, f := range r.feeds {
		set := f.DO.Set()
		st.roots = append(st.roots, query.RootInfo{Shard: i, Root: set.Root(), Count: set.Len()})
	}
	return st
}

// gatewayState reads the same triple off a live gateway.
func gatewayState(gw *server.Gateway, id string) (finalState, error) {
	stats, err := gw.Stats(id)
	if err != nil {
		return finalState{}, err
	}
	eng, err := gw.Query(id)
	if err != nil {
		return finalState{}, err
	}
	roots, err := eng.Roots()
	if err != nil {
		return finalState{}, err
	}
	per, err := gw.ShardStats(id)
	if err != nil {
		return finalState{}, err
	}
	var base gas.Gas
	for _, p := range per {
		base += p.BaseGas
	}
	return finalState{ops: stats.Ops, gas: stats.Feed.FeedGas - base, roots: roots}, nil
}

// diff describes how got departs from want ("" when equal). Seq and height
// are compared only when want carries them (a reference replay has neither).
func (want finalState) diff(got finalState) string {
	var b bytes.Buffer
	if got.ops != want.ops {
		fmt.Fprintf(&b, "ops %d want %d; ", got.ops, want.ops)
	}
	if got.gas != want.gas {
		fmt.Fprintf(&b, "feed Gas %d want %d; ", got.gas, want.gas)
	}
	if len(got.roots) != len(want.roots) {
		fmt.Fprintf(&b, "%d shards want %d; ", len(got.roots), len(want.roots))
		return b.String()
	}
	for i, w := range want.roots {
		g := got.roots[i]
		if g.Root != w.Root || g.Count != w.Count {
			fmt.Fprintf(&b, "shard %d root %s/%d want %s/%d; ", i, g.Root, g.Count, w.Root, w.Count)
		}
		if w.Seq != 0 && (g.Seq != w.Seq || g.Height != w.Height) {
			fmt.Fprintf(&b, "shard %d seq %d height %d want seq %d height %d; ", i, g.Seq, g.Height, w.Seq, w.Height)
		}
	}
	return b.String()
}

// staticGas replays preload then batches under a static placement ("bl1":
// never replicate, "bl2": always replicate, no ADS) and returns the feed
// Gas of the batches alone.
func staticGas(cfg server.FeedConfig, policy string, preload, batches [][]core.Op) (gas.Gas, error) {
	cfg.Policy = policy
	ref, err := newReference(cfg)
	if err != nil {
		return 0, err
	}
	for _, b := range preload {
		ref.apply(b, false)
	}
	before := ref.feedGas()
	for _, b := range batches {
		ref.apply(b, false)
	}
	return ref.feedGas() - before, nil
}

// feedOracle checks one gateway feed's final state (read before the gateway
// was dropped, so the replays do not share the heap with it) against the
// reference replay of the same op sequence, and prices the first sample batches under GRuB and
// under both static placements. It returns GRuB's Gas for the sample (net of
// preload) and the cheaper static placement's.
func feedOracle(rep *report, got finalState, id string, cfg server.FeedConfig, preload, batches [][]core.Op, sample int, gotDigest uint64) (grub, static gas.Gas, err error) {
	ref, err := newReference(cfg)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range preload {
		ref.apply(b, false)
	}
	preGas := ref.feedGas()
	for i, b := range batches {
		ref.apply(b, true)
		if i+1 == sample {
			grub = ref.feedGas() - preGas
		}
	}
	if d := ref.state().diff(got); d != "" {
		rep.mismatch("feed %s departs from its reference replay: %s", id, d)
	}
	if ref.digest.sum() != gotDigest {
		rep.mismatch("feed %s: op results differ from the reference replay's (digest %x want %x)", id, gotDigest, ref.digest.sum())
	}
	bl1, err := staticGas(cfg, "bl1", preload, batches[:sample])
	if err != nil {
		return 0, 0, err
	}
	bl2, err := staticGas(cfg, "bl2", preload, batches[:sample])
	if err != nil {
		return 0, 0, err
	}
	rep.note("gas feed %s, first %d of %d batches: GRuB %d  BL1 %d  BL2 %d", id, sample, len(batches), grub, bl1, bl2)
	return grub, min(bl1, bl2), nil
}

// feedsOracle runs feedOracle for every feed, two at a time, and returns
// gas_vs_best_static over all of them: GRuB's Gas for the samples over the
// cheaper static placement's.
func feedsOracle(rep *report, final []finalState, feeds []feedInputs, samples []int, digests []*resultDigest) (float64, error) {
	grub := make([]gas.Gas, len(feeds))
	static := make([]gas.Gas, len(feeds))
	var jobs []func() error
	for c, f := range feeds {
		jobs = append(jobs, func() (err error) {
			grub[c], static[c], err = feedOracle(rep, final[c], f.cfg.ID, f.cfg, f.preload, f.batches, samples[c], digests[c].sum())
			return err
		})
	}
	if err := parallel(jobs); err != nil {
		return 0, err
	}
	var g, st gas.Gas
	for c := range feeds {
		g, st = g+grub[c], st+static[c]
	}
	return float64(g) / float64(max(st, 1)), nil
}
