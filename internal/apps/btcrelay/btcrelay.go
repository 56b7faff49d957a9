// Package btcrelay implements the paper's second case study (§4.2): a
// BtcRelay-style side-chain feed carrying Bitcoin block headers onto the
// simulated Ethereum chain through GRuB, and a Bitcoin-pegged ERC20 token
// whose mint/burn operations verify SPV proofs against the fed headers.
//
// A mint (burn) consumes the deposit (redeem) transaction's SPV proof and
// reads `Confirmations` consecutive headers from the feed, verifying
// proof-of-work, previous-hash linkage and Merkle inclusion — the checks an
// on-chain BtcRelay performs.
package btcrelay

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"grub/internal/apps/erc20"
	"grub/internal/btc"
	"grub/internal/chain"
	"grub/internal/core"
)

// Confirmations is the SPV confirmation depth (six blocks, as in the paper).
const Confirmations = 6

// Errors surfaced by the pegged token.
var (
	ErrBadDeposit    = errors.New("btcrelay: malformed deposit transaction")
	ErrNotConfirmed  = errors.New("btcrelay: not enough confirmations fed")
	ErrHeaderMissing = errors.New("btcrelay: header missing from feed")
)

// HeaderKey names the feed record carrying the header at the given height.
func HeaderKey(height int) string { return fmt.Sprintf("btc-block-%08d", height) }

// DepositTx formats a simulated Bitcoin deposit transaction crediting
// `to` with `sats`.
func DepositTx(to chain.Address, sats uint64) btc.Tx {
	return btc.Tx(fmt.Sprintf("deposit|%s|%d", to, sats))
}

// RedeemTx formats a simulated Bitcoin redeem transaction debiting `from`.
func RedeemTx(from chain.Address, sats uint64) btc.Tx {
	return btc.Tx(fmt.Sprintf("redeem|%s|%d", from, sats))
}

func parseTx(tx btc.Tx, wantKind string) (chain.Address, uint64, error) {
	parts := strings.Split(string(tx), "|")
	if len(parts) != 3 || parts[0] != wantKind {
		return "", 0, fmt.Errorf("%w: %q", ErrBadDeposit, tx)
	}
	n, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("%w: amount: %v", ErrBadDeposit, err)
	}
	return chain.Address(parts[1]), n, nil
}

// MintArgs carries an SPV proof of a Bitcoin deposit.
type MintArgs struct {
	Proof *btc.SPVProof
}

// BurnArgs carries an SPV proof of a Bitcoin redeem transaction.
type BurnArgs struct {
	Proof *btc.SPVProof
}

type pendingVerify struct {
	proof   *btc.SPVProof
	mint    bool
	headers map[int]btc.Header
	needed  int
}

// PeggedToken is the Bitcoin-pegged ERC20 whose supply is controlled by
// SPV-verified deposits and redeems.
type PeggedToken struct {
	addr    chain.Address
	manager chain.Address
	token   *erc20.Token

	pending map[string][]*pendingVerify // feed key -> waiting verifications

	// Counters observable by tests/examples.
	Minted uint64
	Burned uint64
	Failed int
}

// New registers the pegged token DU contract at addr, reading headers from
// the GRuB manager.
func New(c *chain.Chain, addr chain.Address, manager chain.Address) *PeggedToken {
	p := &PeggedToken{
		addr:    addr,
		manager: manager,
		pending: make(map[string][]*pendingVerify),
	}
	p.token = erc20.New(c, chain.Address(string(addr)+"-token"), "xBTC", addr)
	c.Register(addr, "mint", p.mint)
	c.Register(addr, "burn", p.burn)
	c.Register(addr, "onHeader", p.onHeader)
	return p
}

// Token returns the underlying ERC20.
func (p *PeggedToken) Token() *erc20.Token { return p.token }

// Address returns the DU contract address.
func (p *PeggedToken) Address() chain.Address { return p.addr }

func (p *PeggedToken) mint(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(MintArgs)
	if !ok {
		return nil, fmt.Errorf("btcrelay: mint args %T", args)
	}
	return p.verify(ctx, a.Proof, true)
}

func (p *PeggedToken) burn(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(BurnArgs)
	if !ok {
		return nil, fmt.Errorf("btcrelay: burn args %T", args)
	}
	return p.verify(ctx, a.Proof, false)
}

// verify kicks off reading Confirmations consecutive headers starting at the
// proof's block. Callbacks collect them; the last one completes the
// operation.
func (p *PeggedToken) verify(ctx *chain.Ctx, proof *btc.SPVProof, mint bool) (any, error) {
	if proof == nil {
		return nil, ErrBadDeposit
	}
	pv := &pendingVerify{proof: proof, mint: mint, headers: make(map[int]btc.Header), needed: Confirmations}
	for h := proof.Height; h < proof.Height+Confirmations; h++ {
		key := HeaderKey(h)
		p.pending[key] = append(p.pending[key], pv)
		if _, err := ctx.Call(p.manager, "gGet", &core.GetArgs{
			Key:      key,
			Callback: core.Callback{Contract: p.addr, Method: "onHeader"},
		}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// onHeader receives one header from the feed and completes any verification
// that now has all its headers.
func (p *PeggedToken) onHeader(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*core.CallbackArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("btcrelay: onHeader args %T", args)
	}
	waiters := p.pending[a.Key]
	if len(waiters) == 0 {
		return nil, nil // late or duplicate delivery
	}
	pv := waiters[0]
	p.pending[a.Key] = waiters[1:]
	if !a.Found {
		p.Failed++
		return nil, fmt.Errorf("%w: %s", ErrHeaderMissing, a.Key)
	}
	hdr, err := btc.DecodeHeader(a.Value)
	if err != nil {
		return nil, fmt.Errorf("btcrelay: %s: %w", a.Key, err)
	}
	height, err := heightOf(a.Key)
	if err != nil {
		return nil, err
	}
	pv.headers[height] = hdr
	if len(pv.headers) < pv.needed {
		return nil, nil
	}
	return p.complete(ctx, pv)
}

func heightOf(key string) (int, error) {
	const prefix = "btc-block-"
	if !strings.HasPrefix(key, prefix) {
		return 0, fmt.Errorf("%w: key %q", ErrHeaderMissing, key)
	}
	return strconv.Atoi(key[len(prefix):])
}

// complete runs the full relay verification with all headers in hand.
func (p *PeggedToken) complete(ctx *chain.Ctx, pv *pendingVerify) (any, error) {
	base := pv.proof.Height
	// PoW + linkage across the confirmation window. Verification cost is
	// metered as hashing the headers.
	for h := base; h < base+pv.needed; h++ {
		hdr, ok := pv.headers[h]
		if !ok {
			p.Failed++
			return nil, ErrNotConfirmed
		}
		ctx.ChargeHash(btc.HeaderSize)
		if !hdr.MeetsTarget() {
			p.Failed++
			return nil, btc.ErrSPV
		}
		if h > base {
			if err := btc.VerifyLinkage(pv.headers[h-1], hdr); err != nil {
				p.Failed++
				return nil, err
			}
		}
	}
	// SPV inclusion against the deposit block's header.
	ctx.ChargeHash(len(pv.proof.Tx) + len(pv.proof.Path.Path)*64)
	if err := btc.VerifySPV(pv.headers[base], pv.proof); err != nil {
		p.Failed++
		return nil, err
	}
	kind := "redeem"
	if pv.mint {
		kind = "deposit"
	}
	who, sats, err := parseTx(pv.proof.Tx, kind)
	if err != nil {
		p.Failed++
		return nil, err
	}
	if pv.mint {
		if _, err := ctx.Call(p.token.Address(), "mint", erc20.MintArgs{To: who, Amount: sats}); err != nil {
			return nil, err
		}
		p.Minted += sats
	} else {
		if _, err := ctx.Call(p.token.Address(), "burn", erc20.BurnArgs{From: who, Amount: sats}); err != nil {
			p.Failed++
			return nil, err
		}
		p.Burned += sats
	}
	return nil, nil
}
