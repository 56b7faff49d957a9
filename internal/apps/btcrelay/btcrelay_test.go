package btcrelay

import (
	"fmt"
	"testing"

	"grub/internal/btc"
	"grub/internal/chain"
	"grub/internal/core"
	"grub/internal/gas"
	"grub/internal/policy"
	"grub/internal/sim"
)

// harness wires a simulated Bitcoin chain, a GRuB header feed and a pegged
// token on one Ethereum-like chain.
type harness struct {
	feed  *core.Feed
	token *PeggedToken
	bit   *btc.Chain
}

func newHarness(t *testing.T, p policy.Policy) *harness {
	t.Helper()
	c := chain.New(sim.NewClock(0), chain.Params{BlockInterval: 1, PropagationDelay: 0, FinalityDepth: 1}, gas.DefaultSchedule())
	f := core.NewFeed(c, p, core.Options{EpochOps: 4})
	tok := New(c, "pegged", "grub-manager")
	return &harness{feed: f, token: tok, bit: btc.NewChain()}
}

// feedBlock mines a Bitcoin block with txs and feeds its header to GRuB.
func (h *harness) feedBlock(txs ...btc.Tx) btc.Block {
	b := h.bit.Mine(txs)
	h.feed.Write(core.KV{Key: HeaderKey(b.Height), Value: b.Header.Encode()})
	return b
}

func (h *harness) confirm(n int) {
	for i := 0; i < n; i++ {
		h.feedBlock(btc.Tx(fmt.Sprintf("filler-%d-%d", h.bit.Height(), i)))
	}
	h.feed.FlushEpoch()
}

func (h *harness) balance(t *testing.T, who chain.Address) uint64 {
	t.Helper()
	v, err := h.feed.Chain.View(h.token.Token().Address(), "balanceOf", who)
	if err != nil {
		t.Fatal(err)
	}
	return v.(uint64)
}

func TestMintAfterConfirmedDeposit(t *testing.T) {
	h := newHarness(t, policy.Never{})
	deposit := DepositTx("alice", 50_000)
	b := h.feedBlock(deposit, btc.Tx("noise"))
	h.confirm(Confirmations) // bury the deposit
	proof, err := h.bit.Prove(b.Height, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: proof}, proof.Size()); err != nil {
		t.Fatalf("mint: %v", err)
	}
	if got := h.balance(t, "alice"); got != 50_000 {
		t.Fatalf("alice = %d, want 50000", got)
	}
	if h.token.Minted != 50_000 {
		t.Fatalf("Minted = %d", h.token.Minted)
	}
}

func TestBurnAfterRedeem(t *testing.T) {
	h := newHarness(t, policy.Never{})
	b := h.feedBlock(DepositTx("alice", 1000))
	h.confirm(Confirmations)
	p, _ := h.bit.Prove(b.Height, 0)
	if err := h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size()); err != nil {
		t.Fatal(err)
	}
	rb := h.feedBlock(RedeemTx("alice", 400))
	h.confirm(Confirmations)
	rp, _ := h.bit.Prove(rb.Height, 0)
	if err := h.feed.ReadFrom("pegged", "burn", BurnArgs{Proof: rp}, rp.Size()); err != nil {
		t.Fatal(err)
	}
	if got := h.balance(t, "alice"); got != 600 {
		t.Fatalf("alice = %d, want 600", got)
	}
}

func TestMintFailsWithoutConfirmations(t *testing.T) {
	h := newHarness(t, policy.Never{})
	b := h.feedBlock(DepositTx("alice", 1000))
	h.feed.FlushEpoch() // only the deposit block fed; descendants missing
	p, _ := h.bit.Prove(b.Height, 0)
	_ = h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size())
	if got := h.balance(t, "alice"); got != 0 {
		t.Fatalf("alice = %d; mint must wait for %d confirmations", got, Confirmations)
	}
	if h.token.Failed == 0 {
		t.Fatal("unconfirmed mint not recorded as failure")
	}
}

func TestMintRejectsForgedProof(t *testing.T) {
	h := newHarness(t, policy.Never{})
	b := h.feedBlock(DepositTx("alice", 1000))
	h.confirm(Confirmations)
	p, _ := h.bit.Prove(b.Height, 0)
	p.Tx = DepositTx("alice", 1_000_000) // inflate the amount
	_ = h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size())
	if got := h.balance(t, "alice"); got != 0 {
		t.Fatalf("alice = %d; forged SPV accepted", got)
	}
}

func TestBurnOverdraftFails(t *testing.T) {
	h := newHarness(t, policy.Never{})
	b := h.feedBlock(DepositTx("alice", 100))
	h.confirm(Confirmations)
	p, _ := h.bit.Prove(b.Height, 0)
	if err := h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size()); err != nil {
		t.Fatal(err)
	}
	rb := h.feedBlock(RedeemTx("alice", 500)) // more than held
	h.confirm(Confirmations)
	rp, _ := h.bit.Prove(rb.Height, 0)
	_ = h.feed.ReadFrom("pegged", "burn", BurnArgs{Proof: rp}, rp.Size())
	if got := h.balance(t, "alice"); got != 100 {
		t.Fatalf("alice = %d, want 100 (burn must fail)", got)
	}
}

func TestMintWithReplicatedHeaders(t *testing.T) {
	// With Always (BL2) all headers are replicated: the whole mint
	// completes synchronously in one transaction.
	h := newHarness(t, policy.Always{})
	b := h.feedBlock(DepositTx("alice", 777))
	h.confirm(Confirmations)
	p, _ := h.bit.Prove(b.Height, 0)
	before := h.feed.Chain.TxCount()
	if err := h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size()); err != nil {
		t.Fatal(err)
	}
	if h.feed.Chain.TxCount() != before+1 {
		t.Fatalf("tx delta = %d, want 1 (synchronous reads)", h.feed.Chain.TxCount()-before)
	}
	if got := h.balance(t, "alice"); got != 777 {
		t.Fatalf("alice = %d", got)
	}
}

func TestHeaderKeyRoundTrip(t *testing.T) {
	for _, h := range []int{0, 7, 123456} {
		got, err := heightOf(HeaderKey(h))
		if err != nil || got != h {
			t.Fatalf("heightOf(HeaderKey(%d)) = %d, %v", h, got, err)
		}
	}
	if _, err := heightOf("bogus"); err == nil {
		t.Fatal("bogus key parsed")
	}
}

// TestRecycledMatchesOwnedVerify runs the same deposits, mints and burns —
// each verify six gGets, NR ones answered by delivers — through two
// harnesses, one whose SP answers on recycled buffers and one whose no-op
// Tamper hook forces owned copies, and requires identical Gas, digests and
// token state after every step.
func TestRecycledMatchesOwnedVerify(t *testing.T) {
	for _, p := range []func() policy.Policy{
		func() policy.Policy { return policy.Never{} },
		func() policy.Policy { return policy.NewMemoryless(2) },
	} {
		rec, own := newHarness(t, p()), newHarness(t, p())
		own.feed.SP.Tamper = func(*core.DeliverArgs) {}
		step := func(what string, run func(h *harness) error) {
			t.Helper()
			errRec, errOwn := run(rec), run(own)
			if fmt.Sprint(errRec) != fmt.Sprint(errOwn) {
				t.Fatalf("%s: recycled err %v, owned err %v", what, errRec, errOwn)
			}
			if rec.feed.FeedGas() != own.feed.FeedGas() || rec.feed.Chain.TotalGas() != own.feed.Chain.TotalGas() {
				t.Fatalf("%s: Gas %d/%d recycled, %d/%d owned", what,
					rec.feed.FeedGas(), rec.feed.Chain.TotalGas(), own.feed.FeedGas(), own.feed.Chain.TotalGas())
			}
			if rec.feed.DO.Set().Root() != own.feed.DO.Set().Root() {
				t.Fatalf("%s: digests diverge", what)
			}
			a, b := rec.token, own.token
			if a.Minted != b.Minted || a.Burned != b.Burned || a.Failed != b.Failed ||
				rec.balance(t, "alice") != own.balance(t, "alice") {
				t.Fatalf("%s: token state diverges", what)
			}
		}
		for round := 0; round < 4; round++ {
			// Both Bitcoin chains are deterministic, so a block mined on
			// one has its height on the other.
			var dep, red btc.Block
			step("deposit", func(h *harness) error {
				dep = h.feedBlock(DepositTx("alice", 1000))
				h.confirm(Confirmations)
				return nil
			})
			step("mint", func(h *harness) error {
				p, err := h.bit.Prove(dep.Height, 0)
				if err != nil {
					return err
				}
				return h.feed.ReadFrom("pegged", "mint", MintArgs{Proof: p}, p.Size())
			})
			step("redeem", func(h *harness) error {
				red = h.feedBlock(RedeemTx("alice", 300))
				h.confirm(Confirmations)
				return nil
			})
			step("burn", func(h *harness) error {
				p, err := h.bit.Prove(red.Height, 0)
				if err != nil {
					return err
				}
				return h.feed.ReadFrom("pegged", "burn", BurnArgs{Proof: p}, p.Size())
			})
		}
		if rec.token.Minted != 4000 || rec.token.Burned != 1200 {
			t.Fatalf("minted %d, burned %d; want 4000, 1200", rec.token.Minted, rec.token.Burned)
		}
	}
}
