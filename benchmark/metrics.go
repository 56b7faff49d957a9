package main

// metricSpec mirrors one BENCHMARK.json metric entry; bench_test.go keeps
// the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by the untraced run
// of every workload. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p99_ms", "ms", "lower", 0.25},
	{"gas_per_op", "Gas/op", "lower", 0.05},
	{"gas_vs_best_static", "ratio", "lower", 0.06},
	{"allocs_per_op", "mallocs/op", "lower", 0.06},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer is what single layers cost, reported by the traced run of every
// workload on that workload's own inputs. A layer is a package under
// internal/; runtime is the Go runtime.
var perLayer = []metricSpec{
	{Name: "merkle.hash_leaf_ns", Unit: "ns", Better: "lower"},
	{Name: "merkle.hash_inner_ns", Unit: "ns", Better: "lower"},
	{Name: "merkle.verify_us", Unit: "us", Better: "lower"},

	{Name: "ads.put_us", Unit: "us/op", Better: "lower"},
	{Name: "ads.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "ads.prove_us", Unit: "us", Better: "lower"},
	{Name: "ads.prove_absent_us", Unit: "us", Better: "lower"},
	{Name: "ads.prove_range_us", Unit: "us", Better: "lower"},
	{Name: "ads.verify_us", Unit: "us", Better: "lower"},
	{Name: "ads.proof_bytes", Unit: "B", Better: "lower"},

	{Name: "policy.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.replicated_frac", Unit: "ratio", Better: "lower"},

	{Name: "chain.tx_overhead_us", Unit: "us", Better: "lower"},
	{Name: "chain.tx_per_op", Unit: "tx/op", Better: "lower"},
	{Name: "chain.gas_per_tx", Unit: "Gas/tx", Better: "lower"},

	{Name: "core.apply_us", Unit: "us/op", Better: "lower"},
	{Name: "core.apply_write_us", Unit: "us/op", Better: "lower"},
	{Name: "core.apply_read_us", Unit: "us/op", Better: "lower"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},

	{Name: "kvstore.put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.wal_self_us", Unit: "us/op", Better: "lower"},
	{Name: "kvstore.scan_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "kvstore.disk_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "kvstore.flushes", Unit: "count", Better: "lower"},
	{Name: "kvstore.compactions", Unit: "count", Better: "lower"},
	{Name: "kvstore.compaction_bytes", Unit: "B", Better: "lower"},

	{Name: "shard.do_us", Unit: "us/op", Better: "lower"},
	{Name: "shard.self_us", Unit: "us/op", Better: "lower"},
	{Name: "shard.scatter_us", Unit: "us/op", Better: "lower"},
	{Name: "shard.mailbox_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.persist_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.repl_append_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.apply_entry_us", Unit: "us/op", Better: "lower"},

	{Name: "query.get_us", Unit: "us", Better: "lower"},
	{Name: "query.range_us", Unit: "us", Better: "lower"},
	{Name: "query.verify_get_us", Unit: "us", Better: "lower"},
	{Name: "query.verify_range_us", Unit: "us", Better: "lower"},
	{Name: "query.proof_bytes_per_get", Unit: "B", Better: "lower"},
	{Name: "query.proof_bytes_per_range", Unit: "B", Better: "lower"},

	{Name: "repl.page_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.wire_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "repl.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.follower_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "server.gateway_do_us", Unit: "us/op", Better: "lower"},
	{Name: "server.http_do_us", Unit: "us/op", Better: "lower"},
	{Name: "server.json_us", Unit: "us/op", Better: "lower"},
	{Name: "server.http_self_us", Unit: "us/op", Better: "lower"},
	{Name: "server.get_http_us", Unit: "us", Better: "lower"},
	{Name: "server.get_json_us", Unit: "us", Better: "lower"},
	{Name: "server.verify_client_us", Unit: "us", Better: "lower"},
	{Name: "server.req_bytes_per_batch", Unit: "B", Better: "lower"},
	{Name: "server.resp_bytes_per_get", Unit: "B", Better: "lower"},
	{Name: "server.ingress_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "runtime.ops_per_s_drift", Unit: "ratio", Better: "higher"},
}
