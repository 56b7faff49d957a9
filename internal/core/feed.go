package core

import (
	"fmt"

	"grub/internal/chain"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/workload"
)

// Options configures a Feed.
type Options struct {
	// Manager, DOAddr, SPAddr name the three parties on the chain.
	// Defaults: "grub-manager", "do", "sp".
	Manager chain.Address
	DOAddr  chain.Address
	SPAddr  chain.Address
	// EpochOps is the number of workload operations per epoch: the DO
	// batches writes and actuates decisions at epoch boundaries. Figure 5
	// uses 32, Figure 6 uses 4. Default 32.
	EpochOps int
	// MaxReplicas bounds the number of on-chain replicas (0 = unbounded);
	// the BtcRelay feed (§4.2) uses a budget with LRU eviction.
	MaxReplicas int
	// NoADS disables digest maintenance for the pure on-chain baseline
	// BL2, whose cost model has no off-chain component (§2.3).
	NoADS bool
	// Trace selects the on-chain-trace dynamic baselines of Figure 7.
	Trace TraceMode
	// DeferPromotions disables eager NR->R actuation. By default a
	// promotion decided during a read burst is materialized immediately
	// (a transition-only update transaction), so the remainder of the
	// burst reads from contract storage; with DeferPromotions the
	// transition waits for the epoch boundary.
	DeferPromotions bool
}

func (o Options) withDefaults() Options {
	if o.Manager == "" {
		o.Manager = "grub-manager"
	}
	if o.DOAddr == "" {
		o.DOAddr = "do"
	}
	if o.SPAddr == "" {
		o.SPAddr = "sp"
	}
	if o.EpochOps <= 0 {
		o.EpochOps = 32
	}
	return o
}

// readerAddr is the generic data-user contract the driver reads through.
const readerAddr chain.Address = "du-reader"

// Feed assembles a complete GRuB deployment on a simulated chain and drives
// workloads through it. It is the object every experiment manipulates.
type Feed struct {
	Chain   *chain.Chain
	Manager *StorageManager
	DO      *DO
	SP      *SPNode

	opts Options

	opsInEpoch int
	delivered  int
	notFound   int
	// reads backs the slice takeReads returns.
	reads []string
	// LastValue records the most recent callback payload per key
	// (DU-side application state, held in memory).
	LastValue map[string][]byte
}

// NewFeed wires a feed with the given decision policy onto c.
func NewFeed(c *chain.Chain, p policy.Policy, opts Options) *Feed {
	f := wireFeed(c, p, opts)
	// Genesis: put the (empty-set) digest on-chain so the very first
	// deliver can verify against something. A pure-BL2 feed maintains no
	// digest and skips this.
	if !f.opts.NoADS {
		f.mustFlush()
	}
	return f
}

// wireFeed registers the contracts on c and assembles the three parties
// around one record set: the DO owns it, the SP serves proofs from it.
// NewFeed then runs genesis; RestoreFeed installs a snapshot instead.
func wireFeed(c *chain.Chain, p policy.Policy, opts Options) *Feed {
	opts = opts.withDefaults()
	do := NewDO(c, opts.Manager, opts.DOAddr, p, opts.MaxReplicas, opts.NoADS)
	f := &Feed{
		Chain:     c,
		Manager:   NewStorageManager(c, opts.Manager, opts.DOAddr, opts.Trace),
		DO:        do,
		SP:        NewSPNode(c, do.Set(), opts.Manager, opts.SPAddr),
		opts:      opts,
		LastValue: make(map[string][]byte),
	}
	registerReader(f)
	return f
}

// registerReader installs the generic data-user contract the driver reads
// through (contract code is re-registered on restore, never serialized).
func registerReader(f *Feed) {
	c, manager := f.Chain, f.opts.Manager
	c.Register(readerAddr, "read", func(ctx *chain.Ctx, args any) (any, error) {
		key, ok := args.(string)
		if !ok {
			return nil, fmt.Errorf("core: reader args %T", args)
		}
		return ctx.Call(manager, "gGet", GetArgs{
			Key:      key,
			Callback: Callback{Contract: readerAddr, Method: "onData"},
		})
	})
	c.Register(readerAddr, "onData", func(ctx *chain.Ctx, args any) (any, error) {
		a, ok := args.(CallbackArgs)
		if !ok {
			return nil, fmt.Errorf("core: onData args %T", args)
		}
		if a.Found {
			f.delivered++
			f.LastValue[a.Key] = a.Value
		} else {
			f.notFound++
		}
		return nil, nil
	})
}

// Delivered returns how many reads completed with a value.
func (f *Feed) Delivered() int { return f.delivered }

// NotFound returns how many reads completed with a proven absence.
func (f *Feed) NotFound() int { return f.notFound }

// FeedGas returns the cumulative feed-layer Gas: everything attributed to
// the storage-manager contract (update and deliver transactions, storage,
// verification, events). Application-layer Gas lives on the DU contracts.
func (f *Feed) FeedGas() gas.Gas { return f.Chain.GasOf(f.opts.Manager) }

// Write stages one data update (part of the next gPuts batch).
func (f *Feed) Write(kv KV) {
	f.DO.StageWrite(kv)
	f.tick()
}

// Read drives one read through a DU transaction, mines it, lets the SP
// watchdog answer any request event, and mines the deliver.
func (f *Feed) Read(key string) error {
	return f.ReadFrom(readerAddr, "read", key, len(key)+4)
}

// ReadFrom drives a read through an arbitrary DU contract entry point (used
// by the case-study applications).
func (f *Feed) ReadFrom(du chain.Address, method string, args any, payload int) error {
	tx := &chain.Tx{From: "user", To: du, Method: method, Args: args, PayloadBytes: payload}
	f.Chain.Submit(tx)
	f.Chain.MineUntilEmpty()
	if tx.Err != nil {
		return fmt.Errorf("core: read tx: %w", tx.Err)
	}
	if err := f.serveRequests(); err != nil {
		return err
	}
	if err := f.monitorReads(); err != nil {
		return err
	}
	f.tick()
	return nil
}

// monitorReads is the DO's workload monitor: it consumes the chain's call
// trace, feeds the gGet invocations in it (whoever the calling DU was) to
// the decision policy in execution order, and — unless promotions are
// deferred — eagerly materializes any NR->R decision so the rest of a read
// burst is served from contract storage.
func (f *Feed) monitorReads() error {
	for _, key := range f.takeReads() {
		f.DO.ObserveRead(key)
		if f.opts.DeferPromotions {
			continue
		}
		if tx := f.DO.FlushPromotion(key); tx != nil {
			f.Chain.MineUntilEmpty()
			if tx.Err != nil {
				return fmt.Errorf("core: promotion tx: %w", tx.Err)
			}
		}
	}
	return nil
}

// takeReads consumes the chain's call trace and returns the keys of the
// gGet invocations in it, in execution order. It runs after every read and
// every epoch flush, so the trace never outlives the epoch that produced it.
// The keys are copied out of the trace, whose buffer the next mine reuses;
// the returned slice is valid until the next takeReads.
func (f *Feed) takeReads() []string {
	f.reads = f.reads[:0]
	for _, cr := range f.Chain.TakeCalls() {
		if cr.To != f.opts.Manager || cr.Method != "gGet" {
			continue
		}
		if a, ok := cr.Args.(GetArgs); ok {
			f.reads = append(f.reads, a.Key)
		}
	}
	return f.reads
}

// serveRequests lets the watchdog answer pending requests and mines the
// resulting deliver transactions.
func (f *Feed) serveRequests() error {
	n, err := f.SP.Watch()
	if err != nil {
		return err
	}
	if n > 0 {
		for _, tx := range f.Chain.MineUntilEmpty() {
			if tx.Err != nil {
				return fmt.Errorf("core: deliver tx: %w", tx.Err)
			}
		}
	}
	return nil
}

// tick advances the epoch op counter and flushes at boundaries.
func (f *Feed) tick() {
	f.opsInEpoch++
	if f.opsInEpoch >= f.opts.EpochOps {
		f.mustFlush()
	}
}

// FlushEpoch forces an epoch boundary (exposed for drivers that align
// epochs with workload phases).
func (f *Feed) FlushEpoch() { f.mustFlush() }

func (f *Feed) mustFlush() {
	f.opsInEpoch = 0
	if tx := f.DO.FlushEpoch(); tx != nil {
		f.Chain.MineUntilEmpty()
		if tx.Err != nil {
			panic(fmt.Sprintf("core: update tx rejected: %v", tx.Err))
		}
	}
	// Consume the flush's own call records. A gGet the monitor has not seen
	// yet (its read failed, or it ran through Chain.View) is observed here
	// and its decision left to the next flush: an epoch boundary submits no
	// promotion of its own, so it cannot fail on one.
	for _, key := range f.takeReads() {
		f.DO.ObserveRead(key)
	}
}

// step executes one workload operation: a write is staged, a read is driven
// through the chain, and a scan expands to point reads over the next
// ScanLen keys the record set holds from the start key on (scans expand at
// the feed layer; see "Scans" in docs/ARCHITECTURE.md). Every way of
// driving a feed — Process, ProcessSeries, ApplyOps — goes through here.
func (f *Feed) step(op workload.Op) error {
	switch {
	case op.Write:
		f.Write(KV{Key: op.Key, Value: op.Value})
	case op.ScanLen > 0:
		for _, k := range f.DO.Set().NextKeys(op.Key, op.ScanLen) {
			if err := f.Read(k); err != nil {
				return err
			}
		}
	default:
		return f.Read(op.Key)
	}
	return nil
}

// Process drives a whole workload trace through the feed, flushing epochs
// every EpochOps operations.
func (f *Feed) Process(trace []workload.Op) error {
	for _, op := range trace {
		if err := f.step(op); err != nil {
			return err
		}
	}
	return nil
}

// EpochStat is one epoch's measurement in a Gas time series.
type EpochStat struct {
	Epoch   int
	Ops     int
	FeedGas gas.Gas
}

// GasPerOp returns the epoch's average feed Gas per operation.
func (e EpochStat) GasPerOp() float64 {
	if e.Ops == 0 {
		return 0
	}
	return float64(e.FeedGas) / float64(e.Ops)
}

// ProcessSeries drives the trace and returns one EpochStat per epoch — the
// time-series view plotted in Figures 5, 6, 9, 13 and 15.
func (f *Feed) ProcessSeries(trace []workload.Op) ([]EpochStat, error) {
	var series []EpochStat
	epochOps := 0
	lastGas := f.FeedGas()
	flushStat := func() {
		if epochOps == 0 {
			return
		}
		g := f.FeedGas()
		series = append(series, EpochStat{Epoch: len(series), Ops: epochOps, FeedGas: g - lastGas})
		lastGas = g
		epochOps = 0
	}
	for _, op := range trace {
		if err := f.step(op); err != nil {
			return nil, err
		}
		epochOps++
		if epochOps >= f.opts.EpochOps {
			flushStat()
		}
	}
	flushStat()
	return series, nil
}
