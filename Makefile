GO ?= go
GOFMT ?= gofmt

.PHONY: all build test race vet fmt-check bench fuzz-smoke docs-check check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fail (and list the offenders) if any tracked Go file is
# not gofmt-clean.
fmt-check:
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The repo's benchmark (BENCHMARK.json; spec in benchmark/README.md): the
# four workloads, untraced, 15 s windows, seed 1. Each run's last line is its
# result object ({"correct","attempted","failed","metrics"}); those four
# lines are collected in BENCH_e2e.jsonl. A run whose oracle fails, or that
# cannot vouch for its numbers, fails the target.
BENCH_WORKLOADS = write_http_durable verified_read_http paper_replay restart_catchup
bench:
	@rm -f BENCH_e2e.jsonl
	@set -e; for w in $(BENCH_WORKLOADS); do \
		out=$$($(GO) run ./benchmark -workload $$w -seed 1 -seconds 15 -trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out"; echo "$$out" | tail -n 1 >> BENCH_e2e.jsonl; \
	done

# Bounded fuzz pass over the durable and wire formats, short enough for CI
# (run with a bigger FUZZTIME locally to dig):
#   - persistent ADS: random op streams against a map model with proof
#     verification at every step;
#   - kvstore SSTables: corrupted/truncated table bytes must error at open,
#     never panic or serve wrong values;
#   - binary read encoding: arbitrary get/range bodies must decode or error
#     without panicking, deep recursion or outsized allocation;
#   - binary ops encoding: arbitrary batch and result bodies likewise, with
#     no allocation sized from a count the body claims.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/ads -run '^$$' -fuzz FuzzSetOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzSSTableOpen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzReadWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzOpsWireDecode -fuzztime $(FUZZTIME)

# Docs gate: relative markdown links in README.md and docs/ must resolve,
# docs/API.md must document every route registered on the gateway mux, and
# every registered metric name (grub_* string literal in non-test source)
# must be documented in docs/API.md. A live half then boots a gateway,
# scrapes /metrics, and requires the exposition to parse strictly with
# every served grub_* family documented — catching names built at runtime.
docs-check:
	$(GO) run ./tools/docscheck

check: build vet fmt-check race docs-check

clean:
	$(GO) clean ./...
	rm -f BENCH_e2e.jsonl
