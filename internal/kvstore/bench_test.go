package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"grub/internal/obs"
)

// BenchmarkWriteBatch measures sustained-write batch latency with compaction
// on the background worker (what every store runs) against compaction inline
// on the write path. One op is one 64-put batch; the tables are small so
// several compactions fire within a few thousand batches (-benchtime 2000x).
// ns/op is the mean; max-batch-ms is the number to compare — the background
// engine's worst batch must stay at memtable-flush cost, while the inline
// one pays whole merges inside Write.
func BenchmarkWriteBatch(b *testing.B) {
	keys := make([][]byte, 20_000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	val := make([]byte, 64)
	for _, mode := range []struct {
		name   string
		inline bool
	}{{"background", false}, {"inline", true}} {
		b.Run(mode.name, func(b *testing.B) {
			met := NewMetrics(obs.NewRegistry())
			db, err := Open(b.TempDir(), Options{
				Metrics:                     met,
				memtableBytes:               128 << 10,
				l0Compact:                   4,
				tableTargetBytes:            256 << 10,
				levelBaseBytes:              512 << 10,
				disableBackgroundCompaction: mode.inline,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(3))
			batch := NewBatch()
			var worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for o := 0; o < 64; o++ {
					batch.Put(keys[rng.Intn(len(keys))], val)
				}
				t0 := time.Now()
				if err := db.Write(batch); err != nil {
					b.Fatal(err)
				}
				if d := time.Since(t0); d > worst {
					worst = d
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(worst.Microseconds())/1000, "max-batch-ms")
			b.ReportMetric(met.Compactions.Value(), "compactions")
			if err := db.CompactionError(); err != nil {
				b.Fatalf("background compaction failed: %v", err)
			}
		})
	}
}
