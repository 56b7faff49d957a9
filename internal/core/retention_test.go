package core

import (
	"fmt"
	"testing"

	"grub/internal/policy"
	"grub/internal/sim"
	"grub/internal/workload"
)

// TestNothingIsRetained drives long mixed traces — NR reads, absent-key
// reads, scans, writes, promotions (eager on one feed, deferred on the
// other) and an omitting SP that relents later — and checks at every epoch
// boundary that the feed has consumed both chain monitoring streams and the
// watchdog's retry list is back to empty: a long-running feed's memory is
// its record set, not its history.
func TestNothingIsRetained(t *testing.T) {
	const (
		ops      = 12000 // per feed; two feeds
		epochOps = 8
		keys     = 48
		// The SP omits every request for one key over this op window.
		dropFrom, dropUntil = 3000, 3400
	)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }

	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("deferred=%v", deferred), func(t *testing.T) {
			f := newTestFeed(policy.NewMemoryless(2), Options{EpochOps: epochOps, DeferPromotions: deferred})
			r := sim.NewRand(21)
			// answering: the SP has had a chance to clear its retry list.
			answering, held := true, 0
			for i := 0; i < ops; i++ {
				switch i {
				case dropFrom:
					f.SP.Drop = func(req RequestEvent) bool { return req.Key == key(0) }
					answering = false
				case dropUntil:
					f.SP.Drop = nil
				}
				var op workload.Op
				switch n := r.Intn(10); {
				case n < 3:
					op = workload.Write(key(r.Intn(keys)), []byte(fmt.Sprintf("v%d", i)))
				case n < 4:
					op = workload.Read(fmt.Sprintf("absent-%d", r.Intn(keys)))
				case n < 5:
					op = workload.Scan(key(r.Intn(keys)), 3)
				default:
					// Skewed, so some keys see K consecutive reads.
					op = workload.Read(key(r.Intn(1 + r.Intn(keys))))
				}
				if err := f.step(op); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				held = max(held, f.SP.PendingRequests())
				if f.SP.Drop == nil && !op.Write {
					answering = true // the read's Watch retried everything held
				}
				if f.opsInEpoch != 0 {
					continue // mid-epoch
				}
				if evs := f.Chain.TakeEvents(); len(evs) != 0 {
					t.Fatalf("op %d: %d events left on the chain at the epoch boundary", i, len(evs))
				}
				if calls := f.Chain.TakeCalls(); len(calls) != 0 {
					t.Fatalf("op %d: %d call records left on the chain at the epoch boundary", i, len(calls))
				}
				if n := f.SP.PendingRequests(); n != 0 && answering {
					t.Fatalf("op %d: %d requests pending with an answering SP", i, n)
				}
			}
			if held == 0 || !answering {
				t.Fatalf("omitting-SP window: held %d requests, released %v", held, answering)
			}
			if f.Delivered() == 0 || f.NotFound() == 0 {
				t.Fatalf("trace too tame: delivered %d, not found %d", f.Delivered(), f.NotFound())
			}
			st := f.Stats()
			if st.Replicated == 0 {
				t.Fatal("trace too tame: nothing was ever promoted")
			}
		})
	}
}
