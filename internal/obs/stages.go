package obs

import (
	"sync"
	"time"
)

// Pipeline stage names. Each applied write batch flows through
// ingress → mailbox → persist → apply → repl_append → publish; the
// read path adds proof_build, and a follower adds follower_fetch,
// follower_verify, and follower_apply.
const (
	StageIngress        = "ingress"         // HTTP decode + scatter-gather round trip
	StageForward        = "forward"         // ingress node: proxy round trip to the owner
	StageRemoteApply    = "remote_apply"    // owner node: handling a forwarded batch end to end
	StageMailbox        = "mailbox"         // queued in a shard worker's mailbox
	StagePersist        = "persist"         // WAL append (log-then-apply)
	StageApply          = "apply"           // core.ApplyOps on the shard feed
	StageReplAppend     = "repl_append"     // repl log append
	StagePublish        = "publish"         // immutable view publication
	StageProofBuild     = "proof_build"     // query engine proof construction
	StageFollowerFetch  = "follower_fetch"  // follower: fetch a log page from the leader
	StageFollowerVerify = "follower_verify" // follower: verify + apply a replicated batch
	StageFollowerApply  = "follower_apply"  // leader-log batch applied on a follower shard
)

// Stages lists every pipeline stage name, in pipeline order.
var Stages = []string{
	StageIngress,
	StageForward,
	StageRemoteApply,
	StageMailbox,
	StagePersist,
	StageApply,
	StageReplAppend,
	StagePublish,
	StageProofBuild,
	StageFollowerFetch,
	StageFollowerVerify,
	StageFollowerApply,
}

// StageSecondsMetric is the histogram family name for per-stage batch
// latency, labeled by (feed, stage).
const StageSecondsMetric = "grub_stage_seconds"

// Pipeline owns the per-(feed, stage) latency histograms for one
// process. Nil-safe: a nil Pipeline yields nil FeedStages, which absorb
// observations as no-ops.
type Pipeline struct {
	vec *HistogramVec

	mu    sync.Mutex
	feeds map[string]FeedStages
}

// NewPipeline registers the stage histogram family on reg.
func NewPipeline(reg *Registry) *Pipeline {
	return &Pipeline{
		vec: reg.NewHistogramVec(StageSecondsMetric,
			"Per-stage batch latency in seconds, labeled by feed and pipeline stage.",
			nil, "feed", "stage"),
		feeds: make(map[string]FeedStages),
	}
}

// Feed returns the cached stage histograms of a feed.
func (p *Pipeline) Feed(id string) FeedStages {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fs, ok := p.feeds[id]
	if !ok {
		fs = make(FeedStages, len(Stages))
		for i, stage := range Stages {
			fs[i] = p.vec.With(id, stage)
		}
		p.feeds[id] = fs
	}
	return fs
}

// FeedStages holds one feed's latency histograms, index-aligned with
// Stages. Nil FeedStages yield nil histograms, which observe nothing.
type FeedStages []*Histogram

// Hist returns the histogram of a stage name (nil for an unknown stage or
// nil FeedStages).
func (fs FeedStages) Hist(stage string) *Histogram {
	if fs == nil {
		return nil
	}
	for i, s := range Stages {
		if s == stage {
			return fs[i]
		}
	}
	return nil
}

// Record observes d on stage's histogram and adds the span [start,
// start+d) on shard (-1 for gateway-level stages) to tr, which may be nil.
func (fs FeedStages) Record(tr *Trace, stage string, shard int, start time.Time, d time.Duration) {
	fs.Hist(stage).Observe(d.Seconds())
	tr.AddSpan(stage, shard, start, d)
}
