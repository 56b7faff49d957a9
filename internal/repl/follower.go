package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"grub/internal/obs"
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader gateway's base URL ("http://host:port").
	Leader string
	// HTTP configures the fetches, Go-to-Go streams to the leader
	// (stream.Pool.Send). nil gets a client with a 10s timeout: replication
	// fetches are small and quick, and an unbounded read on a blackholed
	// leader connection would wedge the tailers — and with them
	// Follower.Close and the daemon's graceful shutdown.
	HTTP *http.Client
	// Poll is the idle poll floor for log tailing (default 20ms). Pages
	// with entries are drained back-to-back regardless.
	Poll time.Duration
	// Refresh is the feed-list refresh cadence: new feeds on the leader
	// start replicating within one refresh (default 500ms).
	Refresh time.Duration
	// MaxBatches bounds entries per log fetch (default 64).
	MaxBatches int
	// Pipeline, when non-nil, receives per-feed follower_fetch (log page
	// fetch round trip) and follower_verify (verified batch apply)
	// latency observations.
	Pipeline *obs.Pipeline
}

func (o Options) withDefaults() Options {
	if o.HTTP == nil {
		o.HTTP = &http.Client{Timeout: 10 * time.Second}
	}
	if o.Poll <= 0 {
		o.Poll = 20 * time.Millisecond
	}
	if o.Refresh <= 0 {
		o.Refresh = 500 * time.Millisecond
	}
	if o.MaxBatches <= 0 {
		o.MaxBatches = 64
	}
	return o
}

// Shard replication states reported by Status.
const (
	// StateSyncing: bootstrapping (ensure/snapshot) or not yet tailing.
	StateSyncing = "syncing"
	// StateTailing: healthy, applying the leader's log as it grows.
	StateTailing = "tailing"
	// StateHalted: divergence detected; replication refused to continue.
	StateHalted = "halted"
	// StateGone: the leader no longer hosts the feed; local state is kept
	// (replication never deletes — operators do).
	StateGone = "gone"
	// StateFailed: the feed could not be created locally (config mismatch).
	StateFailed = "failed"
)

// ShardStatus is one shard's replication health.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	Seq       uint64 `json:"seq"`
	LeaderSeq uint64 `json:"leaderSeq"`
	// Lag is LeaderSeq - Seq as last observed (negative never: clamped 0).
	Lag   uint64 `json:"lag"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// FeedStatus is one feed's replication health, worst shard first in State.
type FeedStatus struct {
	ID     string        `json:"id"`
	State  string        `json:"state"`
	Error  string        `json:"error,omitempty"`
	Shards []ShardStatus `json:"shards,omitempty"`
}

// Follower replicates a leader's feeds into a local Target: every feed the
// leader hosts, or, once Follow has been called, only the followed set (a
// cluster node runs one Follower per peer, following the feeds it tails from
// that peer). Start launches the manager (feed discovery) and one tailer
// goroutine per feed shard; Close stops them all and waits. Close the
// Follower before closing the gateway it replicates into.
type Follower struct {
	opts   Options
	client *Client
	target Target

	stop      chan struct{}
	wake      chan struct{} // Follow asks the manager to re-list now
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once

	mu      sync.Mutex
	only    map[string]bool // nil: every leader feed
	feeds   map[string]*feedRepl
	listErr error // last feed-list fetch failure
	listed  bool  // at least one successful feed-list fetch
}

// feedRepl tracks one replicated feed.
type feedRepl struct {
	id     string
	stop   chan struct{}  // closed when the feed leaves the leader
	stages obs.FeedStages // nil without Options.Pipeline
	wg     sync.WaitGroup // the feed's shard tailers

	mu     sync.Mutex
	state  string
	err    error
	shards []*shardTail
}

func (fr *feedRepl) fail(err error) {
	fr.mu.Lock()
	fr.state, fr.err = StateFailed, err
	fr.mu.Unlock()
}

// markGone records that the feed left the leader (or was unfollowed) and
// stops its tailers. The manager (feed missing from a refresh), any tailer
// (404 on a log fetch) and Unfollow can observe the departure first; whoever
// does flips the state, which also re-arms the retry should the leader
// recreate the feed.
func (fr *feedRepl) markGone() {
	fr.mu.Lock()
	if fr.state != StateGone {
		fr.state = StateGone
		close(fr.stop)
	}
	fr.mu.Unlock()
}

// shardTail is one shard's tailer state.
type shardTail struct {
	shard int

	mu        sync.Mutex
	cursor    uint64
	leaderSeq uint64
	state     string
	err       error
}

func (t *shardTail) set(state string, err error) {
	t.mu.Lock()
	t.state, t.err = state, err
	t.mu.Unlock()
}

func (t *shardTail) observe(cursor, leaderSeq uint64) {
	t.mu.Lock()
	t.cursor = cursor
	if leaderSeq > t.leaderSeq {
		t.leaderSeq = leaderSeq
	}
	t.mu.Unlock()
}

// NewFollower returns an unstarted follower replicating opts.Leader into
// target.
func NewFollower(opts Options, target Target) *Follower {
	opts = opts.withDefaults()
	return &Follower{
		opts:   opts,
		client: &Client{Base: opts.Leader, HTTP: opts.HTTP},
		target: target,
		stop:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
		feeds:  make(map[string]*feedRepl),
	}
}

// Follow restricts f to an explicit feed set and adds ids to it, then wakes
// the manager so they start replicating now rather than at the next Refresh.
// Until the first call f replicates every leader feed; Follow() with no ids
// restricts it to none.
func (f *Follower) Follow(ids ...string) {
	f.mu.Lock()
	if f.only == nil {
		f.only = make(map[string]bool)
	}
	for _, id := range ids {
		f.only[id] = true
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// Unfollow removes id from a restricted f's feed set, stops replicating it
// and waits for its tailers to exit. The local replica is kept.
func (f *Follower) Unfollow(id string) {
	f.mu.Lock()
	delete(f.only, id)
	fr := f.feeds[id]
	delete(f.feeds, id)
	f.mu.Unlock()
	if fr != nil {
		fr.markGone()
		fr.wg.Wait()
	}
}

// Start launches replication. It is idempotent.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		f.wg.Add(1)
		go f.run()
	})
}

// Close stops every replication goroutine, waits for them to exit and ends
// the follower's streams to the leader.
func (f *Follower) Close() {
	f.closeOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	f.client.Close()
}

// Client returns the follower's client, whose streams other fetches share.
func (f *Follower) Client() *Client { return f.client }

// sleep waits d or until wake fires, returning false if the follower (or
// the feed) stopped.
func (f *Follower) sleep(d time.Duration, feedStop, wake <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-f.stop:
		return false
	case <-feedStop:
		return false
	case <-wake:
	case <-timer.C:
	}
	return true
}

// maxBackoff caps the exponential backoff on empty polls and transient
// errors.
const maxBackoff = time.Second

func grow(b time.Duration) time.Duration {
	return min(2*b, maxBackoff)
}

// run is the manager loop: it discovers the leader's feeds, ensures each
// (followed) feed exists locally and keeps the tracked set in sync with the
// leader's.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.opts.Poll
	for {
		infos, err := f.client.Feeds()
		if err != nil {
			f.mu.Lock()
			f.listErr = err
			f.mu.Unlock()
			if !f.sleep(backoff, nil, f.wake) {
				return
			}
			backoff = grow(backoff)
			continue
		}
		backoff = f.opts.Poll
		f.mu.Lock()
		f.listErr = nil
		f.mu.Unlock()
		f.syncFeeds(infos)
		// Publish "listed" only after the fetched feed set is reconciled:
		// Converged must never report true off a fresh-but-empty tracking
		// map while the first sync is still registering feeds.
		f.mu.Lock()
		f.listed = true
		f.mu.Unlock()
		if !f.sleep(f.opts.Refresh, nil, f.wake) {
			return
		}
	}
}

// syncFeeds reconciles the tracked feed set against the leader's list:
// unseen (followed) feeds start replicating, vanished feeds stop (their
// local state is retained).
func (f *Follower) syncFeeds(infos []FeedInfo) {
	present := make(map[string]bool, len(infos))
	var fresh []struct {
		fr  *feedRepl
		cfg json.RawMessage
	}
	f.mu.Lock()
	for _, info := range infos {
		if f.only != nil && !f.only[info.ID] {
			continue
		}
		present[info.ID] = true
		if existing, ok := f.feeds[info.ID]; ok {
			// A feed that previously left the leader (gone: its tailers
			// are stopped) or never started (failed: config mismatch or
			// transient create error) is retried with the leader's
			// current config — a deleted-and-recreated feed resumes
			// replicating instead of staying parked. If the local state
			// is now ahead of the recreated history, the tailer halts
			// with a divergence error rather than forking.
			existing.mu.Lock()
			retry := existing.state == StateGone || existing.state == StateFailed
			existing.mu.Unlock()
			if !retry {
				continue
			}
		}
		fr := &feedRepl{id: info.ID, stop: make(chan struct{}), state: StateSyncing, stages: f.opts.Pipeline.Feed(info.ID)}
		f.feeds[info.ID] = fr
		fresh = append(fresh, struct {
			fr  *feedRepl
			cfg json.RawMessage
		}{fr, info.Config})
	}
	var gone []*feedRepl
	for id, fr := range f.feeds {
		if !present[id] {
			gone = append(gone, fr)
		}
	}
	f.mu.Unlock()

	for _, g := range gone {
		g.markGone()
	}
	// EnsureFeed can run feed recovery; keep it off the status lock.
	for _, nf := range fresh {
		f.startFeed(nf.fr, nf.cfg)
	}
}

// startFeed creates the feed locally (or adopts the recovered one) and
// launches its per-shard tailers.
func (f *Follower) startFeed(fr *feedRepl, cfg json.RawMessage) {
	if err := f.target.EnsureFeed(fr.id, cfg); err != nil {
		fr.fail(err)
		return
	}
	lf, err := f.target.Feed(fr.id)
	if err != nil {
		fr.fail(err)
		return
	}
	tails := make([]*shardTail, lf.Shards())
	for i := range tails {
		tails[i] = &shardTail{shard: i, state: StateSyncing}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.state == StateGone {
		return // unfollowed while the feed was being ensured
	}
	fr.state, fr.shards = StateTailing, tails
	f.wg.Add(len(tails))
	fr.wg.Add(len(tails))
	for _, t := range tails {
		go f.tail(fr, lf, t)
	}
}

// tail is one shard's replication loop: resume from the local cursor,
// bootstrap from a snapshot when the cursor fell below the leader's retained
// floor, then apply pages of anchored batches, backing off when idle and
// halting permanently on divergence.
func (f *Follower) tail(fr *feedRepl, lf Feed, t *shardTail) {
	defer f.wg.Done()
	defer fr.wg.Done()
	cursor, err := lf.Seq(t.shard)
	if err != nil {
		t.set(StateHalted, err)
		return
	}
	t.observe(cursor, 0)
	backoff := f.opts.Poll
	// wait records state and backs off before the next fetch; false means
	// the tailer must stop.
	wait := func(state string, err error) bool {
		t.set(state, err)
		ok := f.sleep(backoff, fr.stop, nil)
		backoff = grow(backoff)
		return ok
	}
	for {
		select {
		case <-f.stop:
			return
		case <-fr.stop:
			t.set(StateGone, nil)
			return
		default:
		}
		fetchStart := time.Now()
		page, err := f.client.Log(fr.id, t.shard, cursor, f.opts.MaxBatches)
		if err != nil {
			if errors.Is(err, ErrFeedGone) {
				t.set(StateGone, err)
				fr.markGone()
				return
			}
			if !wait(StateSyncing, err) {
				return
			}
			continue
		}
		fr.stages.Record(nil, obs.StageFollowerFetch, t.shard, fetchStart, time.Since(fetchStart))
		t.observe(cursor, page.LeaderSeq)
		if page.LeaderSeq < cursor {
			// The local shard is ahead of the leader: wrong leader, local
			// writes, or leader data loss. Following it would fork.
			t.set(StateHalted, fmt.Errorf("%w: local seq %d ahead of leader seq %d",
				ErrDivergence, cursor, page.LeaderSeq))
			return
		}
		if page.SnapshotRequired {
			t.set(StateSyncing, nil)
			snap, err := f.client.Snapshot(fr.id, t.shard)
			if err == nil {
				var seq uint64
				seq, err = lf.Reset(t.shard, snap)
				if err == nil {
					cursor = seq
					t.observe(cursor, page.LeaderSeq)
					backoff = f.opts.Poll
					continue
				}
				if errors.Is(err, ErrDivergence) {
					t.set(StateHalted, err)
					return
				}
			}
			if !wait(StateSyncing, err) {
				return
			}
			continue
		}
		if len(page.Entries) == 0 {
			if !wait(StateTailing, nil) {
				return
			}
			continue
		}
		var applyErr error
		for _, e := range page.Entries {
			verifyStart := time.Now()
			if err := lf.Apply(t.shard, e); err != nil {
				if errors.Is(err, ErrDivergence) {
					t.set(StateHalted, err)
					return
				}
				// Sequence gap or transient engine trouble: resync the
				// cursor from the local shard, keep the error visible in
				// the status, and refetch after a backoff.
				if seq, serr := lf.Seq(t.shard); serr == nil {
					cursor = seq
				}
				applyErr = err
				break
			}
			fr.stages.Record(nil, obs.StageFollowerVerify, t.shard, verifyStart, time.Since(verifyStart))
			cursor = e.Seq
		}
		t.observe(cursor, page.LeaderSeq)
		if applyErr == nil {
			t.set(StateTailing, nil)
			backoff = f.opts.Poll // progress: drain the next page immediately
			continue
		}
		if !wait(StateSyncing, applyErr) {
			return
		}
	}
}

// Status reports replication health per feed, sorted by feed ID. Err (if
// any) is the last feed-list fetch failure.
func (f *Follower) Status() (feeds []FeedStatus, err error) {
	f.mu.Lock()
	tracked := make([]*feedRepl, 0, len(f.feeds))
	for _, fr := range f.feeds {
		tracked = append(tracked, fr)
	}
	err = f.listErr
	f.mu.Unlock()

	for _, fr := range tracked {
		feeds = append(feeds, fr.status())
	}
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].ID < feeds[j].ID })
	return feeds, err
}

// FeedStatus reports one feed's replication health. A feed f does not track
// (not followed, or not yet discovered) reports StateSyncing with no shards
// and the last feed-list fetch failure, if any.
func (f *Follower) FeedStatus(id string) FeedStatus {
	f.mu.Lock()
	fr, err := f.feeds[id], f.listErr
	f.mu.Unlock()
	if fr != nil {
		return fr.status()
	}
	fs := FeedStatus{ID: id, State: StateSyncing}
	if err != nil {
		fs.Error = err.Error()
	}
	return fs
}

func (fr *feedRepl) status() FeedStatus {
	fr.mu.Lock()
	fs := FeedStatus{ID: fr.id, State: fr.state}
	if fr.err != nil {
		fs.Error = fr.err.Error()
	}
	shards := fr.shards
	fr.mu.Unlock()
	for _, t := range shards {
		t.mu.Lock()
		ss := ShardStatus{Shard: t.shard, Seq: t.cursor, LeaderSeq: t.leaderSeq, State: t.state}
		if t.leaderSeq > t.cursor {
			ss.Lag = t.leaderSeq - t.cursor
		}
		if t.err != nil {
			ss.Error = t.err.Error()
		}
		t.mu.Unlock()
		fs.Shards = append(fs.Shards, ss)
		if Severity(ss.State) > Severity(fs.State) {
			fs.State = ss.State
		}
	}
	return fs
}

// Severity orders replication states from healthy to worst: 0 tailing,
// 1 syncing, 2 gone, 3 failed, 4 halted. A feed reports its worst shard's
// state, and the grub_repl_state gauge exports the number.
func Severity(state string) int { return severity[state] }

var severity = map[string]int{StateTailing: 0, StateSyncing: 1, StateGone: 2, StateFailed: 3, StateHalted: 4}

// Converged reports whether the follower has fetched the leader's feed list
// and every replicated shard is tailing with zero lag.
func (f *Follower) Converged() bool {
	f.mu.Lock()
	listed := f.listed
	f.mu.Unlock()
	if !listed {
		return false
	}
	feeds, err := f.Status()
	if err != nil {
		return false
	}
	for _, fs := range feeds {
		if fs.State == StateGone {
			continue
		}
		if fs.State != StateTailing || len(fs.Shards) == 0 {
			return false
		}
		for _, ss := range fs.Shards {
			if ss.State != StateTailing || ss.Lag != 0 {
				return false
			}
		}
	}
	return true
}

// WaitConverged polls Converged until it holds or the timeout elapses. It is
// a convenience for drivers and tests; production followers tail forever.
func (f *Follower) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if f.Converged() {
			return nil
		}
		if time.Now().After(deadline) {
			feeds, err := f.Status()
			return fmt.Errorf("repl: not converged after %v (feeds %+v, list err %v)", timeout, feeds, err)
		}
		if !f.sleep(2*time.Millisecond, nil, nil) {
			return fmt.Errorf("repl: follower closed before convergence")
		}
	}
}
