package kvstore

import "grub/internal/obs"

// Metrics is the engine's telemetry bundle. Every field is an obs counter,
// and obs counters are nil-safe, so a zero Metrics (or a nil *Metrics on
// Options) costs nothing on the hot paths. The gateway registers one bundle
// on its Prometheus registry and shares it across every per-shard store, so
// the exported series aggregate the whole process's storage work.
type Metrics struct {
	// Flushes counts memtable flushes; Compactions counts finished
	// compactions; CompactionBytes totals the bytes written by them.
	Flushes         *obs.Counter
	Compactions     *obs.Counter
	CompactionBytes *obs.Counter
}

// NewMetrics registers the engine's metric families on r and returns the
// bundle. Registration is idempotent: calling it twice on the same registry
// yields handles onto the same underlying series.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Flushes:         r.NewCounter("grub_kv_flushes_total", "Memtable flushes to level-0 tables."),
		Compactions:     r.NewCounter("grub_kv_compactions_total", "Finished table compactions."),
		CompactionBytes: r.NewCounter("grub_kv_compaction_bytes_total", "Bytes written by table compactions."),
	}
}
