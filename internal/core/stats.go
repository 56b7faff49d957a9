package core

import (
	"grub/internal/ads"
	"grub/internal/gas"
)

// FeedStats is a point-in-time snapshot of a feed's counters: the Gas
// ledgers, the chain position, and the replication state of the record set.
// It is plain data (no references into the feed), so a snapshot taken by the
// goroutine that owns the feed can be handed across a channel freely — the
// gateway's stats endpoint relies on this.
type FeedStats struct {
	// Delivered and NotFound count completed reads (value delivered vs
	// proven absence).
	Delivered int `json:"delivered"`
	NotFound  int `json:"notFound"`
	// FeedGas is the cumulative feed-layer Gas (storage-manager contract);
	// TotalGas is everything the chain charged, including DU contracts.
	FeedGas  gas.Gas `json:"feedGas"`
	TotalGas gas.Gas `json:"totalGas"`
	// Height and TxCount locate the chain.
	Height  uint64 `json:"height"`
	TxCount int    `json:"txCount"`
	// Records is the size of the feed's authenticated set; Replicated counts
	// the records currently in state R (materialized in contract storage).
	Records    int `json:"records"`
	Replicated int `json:"replicated"`
}

// Stats snapshots the feed. It must be called from whatever context owns the
// feed (feeds are single-writer); the returned value is safe to share.
func (f *Feed) Stats() FeedStats {
	set := f.DO.Set()
	return FeedStats{
		Delivered:  f.delivered,
		NotFound:   f.notFound,
		FeedGas:    f.FeedGas(),
		TotalGas:   f.Chain.TotalGas(),
		Height:     f.Chain.Height(),
		TxCount:    f.Chain.TxCount(),
		Records:    set.Len(),
		Replicated: set.CountState(ads.R),
	}
}
