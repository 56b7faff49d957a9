// Package scoin implements the paper's first case study (§4.1): SCoin, a
// minimalist DAI-style stablecoin indirectly backed by Ether, driven by a
// GRuB price feed.
//
// The SCoinIssuer contract controls issuance and redemption of an ERC20
// token. Issuing locks Ether collateral and mints one SCoin per USD of
// collateral value divided by the over-collateralization ratio; redeeming
// burns SCoin and releases the equivalent Ether at the current price. Both
// paths read the Ether price from the GRuB feed via gGet with a callback,
// which fires synchronously when the price record is replicated on-chain and
// asynchronously (from a deliver transaction) when it is not.
package scoin

import (
	"encoding/binary"
	"errors"
	"fmt"

	"grub/internal/apps/erc20"
	"grub/internal/chain"
	"grub/internal/core"
)

// Errors surfaced by the issuer.
var (
	ErrNoPrice         = errors.New("scoin: price unavailable")
	ErrNothingPending  = errors.New("scoin: callback without pending request")
	ErrUndercollateral = errors.New("scoin: issuance would break collateralization")
)

// CollateralPercent is the over-collateralization requirement: 150 means
// each SCoin (1 USD) is backed by 1.50 USD of locked Ether.
const CollateralPercent = 150

// IssueArgs requests SCoin issuance against EtherMilli (10^-3 ETH units)
// of collateral.
type IssueArgs struct {
	Buyer      chain.Address
	EtherMilli uint64
}

// RedeemArgs requests redemption of SCoin (whole USD units).
type RedeemArgs struct {
	Seller chain.Address
	SCoin  uint64
}

// EncodePrice serializes a USD-cents-per-ETH price for the feed.
func EncodePrice(centsPerEth uint64) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, centsPerEth)
	return buf
}

// DecodePrice parses a feed value.
func DecodePrice(v []byte) (uint64, error) {
	if len(v) != 8 {
		return 0, fmt.Errorf("scoin: price encoding length %d", len(v))
	}
	return binary.BigEndian.Uint64(v), nil
}

type opKind int

const (
	opIssue opKind = iota + 1
	opRedeem
)

type pendingOp struct {
	kind   opKind
	party  chain.Address
	amount uint64 // ether milli (issue) or scoin (redeem)
}

// Issuer is the SCoinIssuer contract.
type Issuer struct {
	addr     chain.Address
	manager  chain.Address
	token    *erc20.Token
	assetKey string

	// pending correlates price callbacks with requests, FIFO per the
	// request/deliver ordering. A storage slot mirrors the queue depth so
	// the bookkeeping pays realistic Gas.
	pending []pendingOp

	// Results observable by tests/examples.
	Issued   uint64
	Redeemed uint64
	Rejected int
}

// New registers the issuer at addr against an already-registered GRuB
// manager; it creates the SCoin ERC20 with itself as minter. assetKey is the
// feed key carrying the Ether price.
func New(c *chain.Chain, addr chain.Address, manager chain.Address, assetKey string) *Issuer {
	iss := &Issuer{addr: addr, manager: manager, assetKey: assetKey}
	iss.token = erc20.New(c, chain.Address(string(addr)+"-token"), "SCoin", addr)
	c.Register(addr, "issue", iss.issue)
	c.Register(addr, "redeem", iss.redeem)
	c.Register(addr, "onPrice", iss.onPrice)
	return iss
}

// Token returns the SCoin ERC20 contract.
func (i *Issuer) Token() *erc20.Token { return i.token }

// Address returns the issuer address.
func (i *Issuer) Address() chain.Address { return i.addr }

func (i *Issuer) issue(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(IssueArgs)
	if !ok {
		return nil, fmt.Errorf("scoin: issue args %T", args)
	}
	return i.requestPrice(ctx, pendingOp{kind: opIssue, party: a.Buyer, amount: a.EtherMilli})
}

func (i *Issuer) redeem(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(RedeemArgs)
	if !ok {
		return nil, fmt.Errorf("scoin: redeem args %T", args)
	}
	return i.requestPrice(ctx, pendingOp{kind: opRedeem, party: a.Seller, amount: a.SCoin})
}

func (i *Issuer) requestPrice(ctx *chain.Ctx, op pendingOp) (any, error) {
	i.pending = append(i.pending, op)
	// Persist the queue depth: the pending request must survive until an
	// asynchronous deliver, so the contract pays a storage write.
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(len(i.pending)))
	ctx.Store("pending", buf)
	return ctx.Call(i.manager, "gGet", &core.GetArgs{
		Key:      i.assetKey,
		Callback: core.Callback{Contract: i.addr, Method: "onPrice"},
	})
}

// onPrice completes the oldest pending operation with the delivered price.
func (i *Issuer) onPrice(ctx *chain.Ctx, args any) (any, error) {
	a, ok := args.(*core.CallbackArgs)
	if !ok || a == nil {
		return nil, fmt.Errorf("scoin: onPrice args %T", args)
	}
	if len(i.pending) == 0 {
		return nil, ErrNothingPending
	}
	op := i.pending[0]
	i.pending = i.pending[1:]
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(len(i.pending)))
	ctx.Store("pending", buf)

	if !a.Found {
		i.Rejected++
		return nil, ErrNoPrice
	}
	price, err := DecodePrice(a.Value)
	if err != nil {
		return nil, err
	}
	switch op.kind {
	case opIssue:
		// USD value of collateral = etherMilli * centsPerEth / 1000 / 100;
		// mint value/1.5 SCoin (integer arithmetic in cents).
		collateralCents := op.amount * price / 1000
		scoin := collateralCents * 100 / (CollateralPercent * 100)
		if scoin == 0 {
			i.Rejected++
			return nil, ErrUndercollateral
		}
		if _, err := ctx.Call(i.token.Address(), "mint", erc20.MintArgs{To: op.party, Amount: scoin}); err != nil {
			return nil, fmt.Errorf("scoin: mint: %w", err)
		}
		i.Issued += scoin
		// Track locked collateral on-chain.
		locked := getU64(ctx, "locked")
		putU64(ctx, "locked", locked+op.amount)
	case opRedeem:
		if _, err := ctx.Call(i.token.Address(), "burn", erc20.BurnArgs{From: op.party, Amount: op.amount}); err != nil {
			i.Rejected++
			return nil, fmt.Errorf("scoin: burn: %w", err)
		}
		// Release one USD of Ether per SCoin.
		etherMilli := op.amount * 100 * 1000 / price
		locked := getU64(ctx, "locked")
		if etherMilli > locked {
			etherMilli = locked
		}
		putU64(ctx, "locked", locked-etherMilli)
		i.Redeemed += op.amount
	}
	return nil, nil
}

func getU64(ctx *chain.Ctx, slot string) uint64 {
	raw, ok := ctx.Load(slot)
	if !ok || len(raw) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

func putU64(ctx *chain.Ctx, slot string, v uint64) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, v)
	ctx.Store(slot, buf)
}
