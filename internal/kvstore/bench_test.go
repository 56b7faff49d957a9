package kvstore

import (
	"fmt"
	"testing"
)

// BenchmarkCheckpoint times the checkpoint in the shard persister's
// snapshot step. Off the clock, each op logs 512 2 KiB batches, then writes
// a 256 KiB snapshot record over the last one and deletes the log in one
// batch; on the clock it checkpoints: the image rewrite and the WAL reset.
func BenchmarkCheckpoint(b *testing.B) {
	db, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	snap, rec := make([]byte, 256<<10), make([]byte, 2<<10)
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("log/%016x", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys {
			if err := db.Put(k, rec); err != nil {
				b.Fatal(err)
			}
		}
		batch := NewBatch()
		batch.Put([]byte("snap"), snap)
		for _, k := range keys {
			batch.Delete(k)
		}
		if err := db.Write(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
