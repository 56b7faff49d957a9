package chain

import (
	"errors"
	"testing"

	"grub/internal/gas"
	"grub/internal/sim"
	"grub/internal/wire"
)

func newTestChain() *Chain {
	return New(sim.NewClock(0), Params{BlockInterval: 10, PropagationDelay: 2, FinalityDepth: 5}, gas.DefaultSchedule())
}

func TestSubmitMineExecute(t *testing.T) {
	c := newTestChain()
	called := false
	c.Register("ctr", "ping", func(ctx *Ctx, args any) (any, error) {
		called = true
		return "pong", nil
	})
	tx := &Tx{From: "alice", To: "ctr", Method: "ping", PayloadBytes: 0}
	c.Submit(tx)
	c.MineBlock()
	if !called {
		t.Fatal("handler not invoked")
	}
	if !tx.Executed() {
		t.Fatal("tx not marked executed")
	}
	if tx.Ret != "pong" {
		t.Fatalf("Ret = %v", tx.Ret)
	}
	if tx.GasUsed != 21000 {
		t.Fatalf("GasUsed = %d, want 21000 (empty calldata)", tx.GasUsed)
	}
	if c.Height() != 1 {
		t.Fatalf("Height = %d", c.Height())
	}
}

func TestCalldataCost(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "noop", func(ctx *Ctx, args any) (any, error) { return nil, nil })
	tx := &Tx{To: "ctr", Method: "noop", PayloadBytes: 100} // 4 words
	c.Submit(tx)
	c.MineBlock()
	if want := gas.Gas(21000 + 4*2176); tx.GasUsed != want {
		t.Fatalf("GasUsed = %d, want %d", tx.GasUsed, want)
	}
}

func TestPropagationDelay(t *testing.T) {
	c := New(sim.NewClock(0), Params{BlockInterval: 1, PropagationDelay: 5, FinalityDepth: 1}, gas.DefaultSchedule())
	c.Register("ctr", "noop", func(ctx *Ctx, args any) (any, error) { return nil, nil })
	tx := &Tx{To: "ctr", Method: "noop"}
	c.Submit(tx)
	// Blocks at t=1..4 must not include the tx (needs Submitted+Pt <= now).
	for i := 0; i < 4; i++ {
		if got := c.MineBlock(); len(got) != 0 {
			t.Fatalf("block at t=%d included %d txs before propagation", c.Clock().Now(), len(got))
		}
	}
	if got := c.MineBlock(); len(got) != 1 {
		t.Fatalf("block at t=%d included %d txs, want 1", c.Clock().Now(), len(got))
	}
	if tx.Included != 5 {
		t.Fatalf("Included = %d, want 5", tx.Included)
	}
}

func TestStorageGasPrices(t *testing.T) {
	c := newTestChain()
	sched := c.Schedule()
	var insertGas, updateGas, loadGas gas.Gas
	c.Register("ctr", "w", func(ctx *Ctx, args any) (any, error) {
		before := ctx.GasUsed()
		ctx.Store("slot", make([]byte, 64))
		insertGas = ctx.GasUsed() - before

		before = ctx.GasUsed()
		ctx.Store("slot", make([]byte, 64))
		updateGas = ctx.GasUsed() - before

		before = ctx.GasUsed()
		ctx.Load("slot")
		loadGas = ctx.GasUsed() - before
		return nil, nil
	})
	c.Submit(&Tx{To: "ctr", Method: "w"})
	c.MineBlock()
	if insertGas != sched.StoreInsert(64) {
		t.Errorf("insert gas = %d, want %d", insertGas, sched.StoreInsert(64))
	}
	if updateGas != sched.StoreUpdate(64) {
		t.Errorf("update gas = %d, want %d", updateGas, sched.StoreUpdate(64))
	}
	if loadGas != sched.Load(64) {
		t.Errorf("load gas = %d, want %d", loadGas, sched.Load(64))
	}
}

func TestDeleteSlot(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "run", func(ctx *Ctx, args any) (any, error) {
		ctx.Store("s", []byte("abc"))
		ctx.DeleteSlot("s")
		if _, ok := ctx.Load("s"); ok {
			t.Error("slot still present after DeleteSlot")
		}
		ctx.Store("s", []byte("xyz")) // must be charged as insert again
		return nil, nil
	})
	c.Submit(&Tx{To: "ctr", Method: "run"})
	c.MineBlock()
	if c.StorageSize("ctr") != 1 {
		t.Fatalf("StorageSize = %d", c.StorageSize("ctr"))
	}
}

func TestInternalCallAttribution(t *testing.T) {
	c := newTestChain()
	c.Register("app", "entry", func(ctx *Ctx, args any) (any, error) {
		ctx.Store("appSlot", make([]byte, 32))
		return ctx.Call("feed", "get", nil)
	})
	c.Register("feed", "get", func(ctx *Ctx, args any) (any, error) {
		ctx.Store("feedSlot", make([]byte, 32))
		return "value", nil
	})
	tx := &Tx{To: "app", Method: "entry"}
	c.Submit(tx)
	c.MineBlock()
	if tx.Err != nil {
		t.Fatalf("tx error: %v", tx.Err)
	}
	if tx.Ret != "value" {
		t.Fatalf("Ret = %v", tx.Ret)
	}
	sched := c.Schedule()
	wantFeed := sched.StoreInsert(32)
	if got := c.GasOf("feed"); got != wantFeed {
		t.Errorf("GasOf(feed) = %d, want %d", got, wantFeed)
	}
	// app gets tx base + its own store + the call overhead.
	wantApp := sched.Tx(0) + sched.StoreInsert(32) + sched.CallBase
	if got := c.GasOf("app"); got != wantApp {
		t.Errorf("GasOf(app) = %d, want %d", got, wantApp)
	}
	if tx.GasUsed != wantApp+wantFeed {
		t.Errorf("GasUsed = %d, want %d", tx.GasUsed, wantApp+wantFeed)
	}
}

func TestEvents(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "emit", func(ctx *Ctx, args any) (any, error) {
		ctx.Emit("request", args, 40)
		return nil, nil
	})
	c.Submit(&Tx{To: "ctr", Method: "emit", Args: "k1"})
	c.MineBlock()
	c.Submit(&Tx{To: "ctr", Method: "emit", Args: "k2"})
	c.MineBlock()
	evs := c.TakeEvents()
	if len(evs) != 2 {
		t.Fatalf("len(TakeEvents) = %d, want 2", len(evs))
	}
	if evs[0].Data != "k1" || evs[1].Data != "k2" {
		t.Fatalf("event data = %v, %v", evs[0].Data, evs[1].Data)
	}
	if evs[0].Block != 1 || evs[1].Block != 2 {
		t.Fatalf("event blocks = %d, %d", evs[0].Block, evs[1].Block)
	}
}

// TestStreamsAreConsumed pins the monitoring-stream contract: a take hands
// over everything since the previous take and the chain keeps nothing, so a
// second take is empty, and a snapshot/restore round trip leaves the
// consumer nothing to fix up — it holds no cursor into either stream.
func TestStreamsAreConsumed(t *testing.T) {
	emitter := func(c *Chain) {
		c.Register("ctr", "emit", func(ctx *Ctx, args any) (any, error) {
			ctx.Emit("request", args, 40)
			return nil, nil
		})
	}
	emit := func(c *Chain, data string) {
		c.Submit(&Tx{To: "ctr", Method: "emit", Args: data})
		c.MineUntilEmpty()
	}
	c := newTestChain()
	emitter(c)
	emit(c, "k1")
	emit(c, "k2")
	if evs, calls := c.TakeEvents(), c.TakeCalls(); len(evs) != 2 || len(calls) != 2 {
		t.Fatalf("first take: %d events, %d calls, want 2 and 2", len(evs), len(calls))
	}
	if evs, calls := c.TakeEvents(), c.TakeCalls(); len(evs) != 0 || len(calls) != 0 {
		t.Fatalf("second take: %d events, %d calls, want none", len(evs), len(calls))
	}

	// Snapshot with an untaken event in the stream: streams are not state.
	emit(c, "k3")
	st, err := c.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestChain()
	emitter(r)
	if err := r.ReadState(wire.Borrow(st)); err != nil {
		t.Fatal(err)
	}
	if evs, calls := r.TakeEvents(), r.TakeCalls(); len(evs) != 0 || len(calls) != 0 {
		t.Fatalf("restored chain starts with %d events, %d calls", len(evs), len(calls))
	}
	emit(r, "k4")
	evs, calls := r.TakeEvents(), r.TakeCalls()
	if len(evs) != 1 || evs[0].Data != "k4" || evs[0].Block != r.Height() {
		t.Fatalf("restored chain events = %+v", evs)
	}
	if len(calls) != 1 || calls[0].Method != "emit" {
		t.Fatalf("restored chain calls = %+v", calls)
	}
}

func TestEventGasCharged(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "emit", func(ctx *Ctx, args any) (any, error) {
		ctx.Emit("e", nil, 100)
		return nil, nil
	})
	tx := &Tx{To: "ctr", Method: "emit"}
	c.Submit(tx)
	c.MineBlock()
	want := c.Schedule().Tx(0) + c.Schedule().Log(1, 100)
	if tx.GasUsed != want {
		t.Fatalf("GasUsed = %d, want %d", tx.GasUsed, want)
	}
}

func TestUnknownContractAndMethod(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "m", func(ctx *Ctx, args any) (any, error) { return nil, nil })
	tx := &Tx{To: "ghost", Method: "m"}
	c.Submit(tx)
	c.MineBlock()
	if !errors.Is(tx.Err, ErrUnknownContract) {
		t.Fatalf("err = %v, want ErrUnknownContract", tx.Err)
	}
	tx2 := &Tx{To: "ctr", Method: "ghost"}
	c.Submit(tx2)
	c.MineBlock()
	if !errors.Is(tx2.Err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", tx2.Err)
	}
}

func TestFinalizedHeight(t *testing.T) {
	c := newTestChain() // F = 5
	if got := c.FinalizedHeight(); got != 0 {
		t.Fatalf("FinalizedHeight at genesis = %d", got)
	}
	for i := 0; i < 7; i++ {
		c.MineBlock()
	}
	if got := c.FinalizedHeight(); got != 2 {
		t.Fatalf("FinalizedHeight = %d, want 2", got)
	}
}

func TestMineUntilEmpty(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "noop", func(ctx *Ctx, args any) (any, error) { return nil, nil })
	for i := 0; i < 5; i++ {
		c.Submit(&Tx{To: "ctr", Method: "noop"})
	}
	txs := c.MineUntilEmpty()
	if len(txs) != 5 {
		t.Fatalf("executed %d txs, want 5", len(txs))
	}
	if c.TxCount() != 5 {
		t.Fatalf("TxCount = %d", c.TxCount())
	}
}

func TestView(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "put", func(ctx *Ctx, args any) (any, error) {
		ctx.Store("x", []byte("v"))
		return nil, nil
	})
	c.Register("ctr", "get", func(ctx *Ctx, args any) (any, error) {
		v, _ := ctx.Load("x")
		return string(v), nil
	})
	c.Register("outer", "get", func(ctx *Ctx, args any) (any, error) {
		return ctx.Call("ctr", "get", nil)
	})
	c.Submit(&Tx{To: "ctr", Method: "put"})
	c.MineBlock()
	before, ctrBefore := c.TotalGas(), c.GasOf("ctr")
	for _, to := range []Address{"ctr", "outer"} {
		got, err := c.View(to, "get", nil)
		if err != nil || got != "v" {
			t.Fatalf("View(%s) = %v, %v", to, got, err)
		}
	}
	if c.TotalGas() != before {
		t.Fatal("View charged gas to the chain totals")
	}
	// Neither the viewed contract nor its callee is charged: every frame
	// of a view, nested calls included, charges a throwaway ledger.
	if g := c.GasOf("ctr"); g != ctrBefore {
		t.Errorf("GasOf(ctr) = %d after views, want %d", g, ctrBefore)
	}
	if g := c.GasOf("outer"); g != 0 {
		t.Errorf("GasOf(outer) = %d after a view, want 0", g)
	}
}

func TestGasAccumulation(t *testing.T) {
	c := newTestChain()
	c.Register("ctr", "noop", func(ctx *Ctx, args any) (any, error) { return nil, nil })
	for i := 0; i < 3; i++ {
		c.Submit(&Tx{To: "ctr", Method: "noop"})
		c.MineBlock()
	}
	if want := gas.Gas(3 * 21000); c.TotalGas() != want {
		t.Fatalf("TotalGas = %d, want %d", c.TotalGas(), want)
	}
	if c.GasOf("ctr") != c.TotalGas() {
		t.Fatalf("GasOf(ctr) = %d, want %d", c.GasOf("ctr"), c.TotalGas())
	}
}

func TestLoadEmptySlotCharges(t *testing.T) {
	c := newTestChain()
	var g gas.Gas
	c.Register("ctr", "r", func(ctx *Ctx, args any) (any, error) {
		before := ctx.GasUsed()
		if _, ok := ctx.Load("missing"); ok {
			t.Error("missing slot reported present")
		}
		g = ctx.GasUsed() - before
		return nil, nil
	})
	c.Submit(&Tx{To: "ctr", Method: "r"})
	c.MineBlock()
	if g != c.Schedule().Load(gas.WordSize) {
		t.Fatalf("empty-slot read gas = %d, want %d", g, c.Schedule().Load(gas.WordSize))
	}
}

// newCounterChain registers a contract whose "bump" method does what a GRuB
// manager call does to contract storage: it loads a slot, stores it back,
// emits an event and calls into a second contract, which loads a slot too.
func newCounterChain() *Chain {
	c := newTestChain()
	c.Register("ctr", "bump", func(ctx *Ctx, args any) (any, error) {
		v, ok := ctx.Load("n")
		if !ok {
			v = make([]byte, 8)
		}
		ctx.Store("n", v)
		ctx.Emit("Bumped", nil, 32)
		return ctx.Call("lib", "peek", nil)
	})
	c.Register("lib", "peek", func(ctx *Ctx, args any) (any, error) {
		ctx.LoadInto("x", nil)
		return nil, nil
	})
	return c
}

// TestTransactionReusesItsBuffers: once the chain has executed one
// transaction, the next one's contexts, meter, mempool, block, event and
// call buffers are all reused; what remains is the Load copy the handler
// receives.
func TestTransactionReusesItsBuffers(t *testing.T) {
	c := newCounterChain()
	tx := &Tx{From: "alice", To: "ctr", Method: "bump"}
	c.Submit(&Tx{From: "alice", To: "ctr", Method: "bump"})
	c.MineBlock()
	c.TakeEvents()
	c.TakeCalls()
	before := c.GasOf("lib")
	allocs := testing.AllocsPerRun(100, func() {
		*tx = Tx{From: "alice", To: "ctr", Method: "bump"}
		c.Submit(tx)
		c.MineBlock()
		if evs, calls := c.TakeEvents(), c.TakeCalls(); len(evs) != 1 || len(calls) != 2 {
			t.Fatalf("took %d events and %d calls, want 1 and 2", len(evs), len(calls))
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations per transaction, want 1 (the Load copy)", allocs)
	}
	if tx.Err != nil || c.GasOf("lib") == before {
		t.Fatalf("err %v, callee gas %d: the internal call was not attributed", tx.Err, c.GasOf("lib"))
	}
}

// TestLoadIntoAllocations: LoadInto charges exactly what Load charges,
// present slot or absent, and reads into caller storage, so a transaction
// that loads its slot that way allocates nothing at all.
func TestLoadIntoAllocations(t *testing.T) {
	run := func(into bool) (*Chain, *Tx) {
		c := newTestChain()
		c.Register("ctr", "bump", func(ctx *Ctx, args any) (any, error) {
			var buf [8]byte
			if into {
				ctx.LoadInto("n", buf[:])
				ctx.LoadInto("missing", buf[:])
			} else {
				if v, ok := ctx.Load("n"); ok {
					copy(buf[:], v)
				}
				ctx.Load("missing")
			}
			buf[0]++
			ctx.Store("n", buf[:])
			return nil, nil
		})
		tx := &Tx{From: "alice", To: "ctr", Method: "bump"}
		for i := 0; i < 3; i++ {
			*tx = Tx{From: "alice", To: "ctr", Method: "bump"}
			c.Submit(tx)
			c.MineBlock()
			c.TakeCalls()
		}
		return c, tx
	}
	load, _ := run(false)
	into, tx := run(true)
	if load.GasOf("ctr") != into.GasOf("ctr") {
		t.Fatalf("LoadInto charged %d, Load %d", into.GasOf("ctr"), load.GasOf("ctr"))
	}
	allocs := testing.AllocsPerRun(100, func() {
		*tx = Tx{From: "alice", To: "ctr", Method: "bump"}
		into.Submit(tx)
		into.MineBlock()
		into.TakeCalls()
	})
	if allocs != 0 || tx.Err != nil {
		t.Fatalf("%v allocations per transaction (err %v), want 0", allocs, tx.Err)
	}
}

// BenchmarkTransaction times one submit, mine and take of the "bump"
// transaction, with its internal call.
func BenchmarkTransaction(b *testing.B) {
	c := newCounterChain()
	tx := &Tx{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*tx = Tx{From: "alice", To: "ctr", Method: "bump"}
		c.Submit(tx)
		c.MineBlock()
		c.TakeEvents()
		c.TakeCalls()
	}
}
