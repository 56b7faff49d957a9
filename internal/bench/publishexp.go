package bench

import (
	"fmt"
	"time"

	"grub/internal/ads"
	"grub/internal/query"
)

// RunPublish measures how view publication scales with the number of records
// in the ADS. Publication is what every committed batch pays on the serving
// path: freeze the current set (Clone) and wrap it in an immutable view
// (NewView, which reads the root). Each batch is applied the way the shard
// worker applies it — Puts, then Root as the batch anchor, which is where the
// record set hashes the batch's root paths — so by publication time the set
// is sealed and Clone is a root-pointer capture plus NewView's two-hash count
// fold: the per-batch publish cost stays flat from n=1k to n=100k. The
// sorted-array ADS this replaced cloned all n records per batch, which is the
// regression the reported ratio exists to show. The guarantee itself is
// pinned deterministically by ads.TestCloneIsOneAllocation; the timings here
// are sub-microsecond and too noisy to gate on.
//
// The batch-apply cost (Puts plus the anchoring Root, per put) is reported
// alongside for context; it is O(log n) per op and so drifts with n.
func RunPublish(cfg Config) error {
	cfg = cfg.withDefaults()
	sizes := []int{1_000, 100_000}
	batch := 16
	iters := cfg.scaled(2000, 200)

	fmt.Fprintf(cfg.W, "publish: per-batch view-publication cost vs record count (%d publishes, batch=%d puts)\n\n", iters, batch)
	fmt.Fprintf(cfg.W, "%-10s %14s %14s\n", "records", "publish ns/op", "apply ns/put")

	perSize := make(map[int]float64, len(sizes))
	var sink uint64
	for _, n := range sizes {
		s := ads.NewSet()
		for i := 0; i < n; i++ {
			st := ads.NR
			if i%4 == 0 {
				st = ads.R
			}
			s.Put(ads.Record{Key: fmt.Sprintf("key-%07d", i), State: st, Value: []byte("v0")})
		}

		// Warm one full cycle, then interleave mutation batches with
		// publications, timing each phase separately.
		_ = query.NewView(0, 1, 1, s.Clone())
		var publish, apply time.Duration
		for it := 0; it < iters; it++ {
			t0 := time.Now()
			for b := 0; b < batch; b++ {
				s.Put(ads.Record{Key: fmt.Sprintf("key-%07d", (it*batch+b)%n), State: ads.NR, Value: []byte{byte(it), byte(b)}})
			}
			sink += uint64(s.Root()[0])
			apply += time.Since(t0)

			t0 = time.Now()
			v := query.NewView(0, uint64(it+2), uint64(it+2), s.Clone())
			publish += time.Since(t0)
			sink += uint64(v.Root()[0])
		}

		pubNs := float64(publish.Nanoseconds()) / float64(iters)
		applyNs := float64(apply.Nanoseconds()) / float64(iters*batch)
		perSize[n] = pubNs
		fmt.Fprintf(cfg.W, "%-10d %14.0f %14.0f\n", n, pubNs, applyNs)
		cfg.metric(fmt.Sprintf("publish.nsPerOp.n%d", n), pubNs)
		cfg.metric(fmt.Sprintf("apply.nsPerPut.n%d", n), applyNs)
	}

	ratio := 0.0
	if perSize[sizes[0]] > 0 {
		ratio = perSize[sizes[len(sizes)-1]] / perSize[sizes[0]]
	}
	fmt.Fprintf(cfg.W, "\npublish cost at n=%d is %.2fx n=%d (flat = O(1) publication; sink %d)\n",
		sizes[len(sizes)-1], ratio, sizes[0], sink%10)
	cfg.metric("publish.ratio100kOver1k", ratio)
	return nil
}
