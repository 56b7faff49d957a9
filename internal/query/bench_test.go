package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"grub/internal/ads"
)

// BenchmarkEngineGet measures point reads off one shard, from b.RunParallel
// readers, alone ("quiet") and while a writer applies batches to the shard
// back to back, as its worker does under a backlog ("writing"): retract the
// current view, or end the set's generation when a read is in flight or a
// reader waits, write a few keys, publish the successor. Every reader counts
// itself into the shard's current view and out again, so the readers of one
// shard write one shared word; run with -cpu 1,2,4,... to see what that
// costs as cores are added. The writing arm also reports its batches per
// read and the share of them that edited the view in place (in-place_%).
func BenchmarkEngineGet(b *testing.B) {
	const keys, batchLen = 1024, 4
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	value := []byte("a value of some thirty-two bytes")
	for _, writing := range []bool{false, true} {
		arm := "quiet"
		if writing {
			arm = "writing"
		}
		b.Run(arm, func(b *testing.B) {
			s := ads.NewSet()
			for _, k := range names {
				s.Put(ads.Record{Key: k, State: ads.NR, Value: value})
			}
			s.Root()
			e := NewEngine(1)
			e.Publish(0, NewView(0, 0, 0, s.Capture()))

			stop := make(chan struct{})
			var writer sync.WaitGroup
			batches, inPlace := 0, 0
			if writing {
				writer.Add(1)
				go func() {
					defer writer.Done()
					for seq := uint64(1); ; seq++ {
						select {
						case <-stop:
							return
						default:
						}
						if e.Retract(0) {
							inPlace++
						} else {
							s.EndGeneration()
						}
						for j := range batchLen {
							s.Put(ads.Record{Key: names[(int(seq)*batchLen+j)%keys], State: ads.NR, Value: value})
						}
						s.Root()
						e.Publish(0, NewView(0, seq, seq, s.Capture()))
						batches++
					}
				}()
			}

			var reader atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(reader.Add(1)) * 331
				for pb.Next() {
					if _, err := e.Get(names[i%keys]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			writer.Wait()
			if writing {
				b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
				b.ReportMetric(100*float64(inPlace)/float64(max(batches, 1)), "in-place_%")
			}
		})
	}
}
