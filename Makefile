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
#   - pruned-tree proofs: arbitrary bytes as a proof tree must be refused
#     by the in-place verifiers unless the pointer-tree oracle accepts them;
#   - sealed-set fold: forged membership proofs, and genuine ones on a set
#     mutated, resealed or rolled back since, must be accepted or refused by
#     the set's VerifyMember as merkle.Verify does;
#   - kvstore checkpoint image and WAL: arbitrary bytes as base must fail
#     Open or open to exactly what they encode, and as wal.log must open to
#     their intact prefix; neither may panic;
#   - binary read encoding: arbitrary get/range bodies must decode or error
#     without panicking, deep recursion or outsized allocation, and an
#     accepted answer aliases nothing of its body: with the body overwritten
#     it re-encodes to the bytes it came from;
#   - binary ops encoding: arbitrary batch and result bodies likewise, with
#     no allocation sized from a count the body claims;
#   - binary replication log encoding: arbitrary log pages likewise, and an
#     accepted page re-encodes to the bytes it came from;
#   - Go-to-Go stream frames: arbitrary bytes as a request frame of any
#     route (its feed, the route's fixed arguments, epoch, flags, trace
#     and body) or as an answer frame must decode or error
#     without panicking or allocating from a length or count they claim
#     (truncated, oversize, non-minimal, unknown route or flag), and a frame
#     that decodes re-encodes to one that decodes the same
#     (internal/stream); the same bytes sent on a gateway's stream get one
#     answer per whole frame, 400 for one that is not a request, 413 and
#     GOAWAY past the body cap (internal/server);
#   - shard image install: arbitrary bytes as a leader's bootstrap image
#     must be refused, leaving the shard as it was, or install to exactly
#     the seq, root, count and height they claim; never panic;
#   - SHA-256 kernel: merkle.Sum256 must equal crypto/sha256 on arbitrary
#     messages, on the SHA-NI kernel and on the fallback;
#   - metrics exposition: arbitrary text, as a peer's /metrics scrape may
#     hold, must parse or be refused without panicking, and text that
#     parses must write back to text that parses to the same families.
#
# Every target caps minimization at 1 s. go test minimizes each new
# interesting input (and a failing one) for up to 60 s by default, so a
# 20 s run that finds an input early spends the rest of its budget on it at
# 0 execs/s. A failure is still reported and saved, less minimized.
FUZZTIME ?= 20s
FUZZFLAGS = -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
fuzz-smoke:
	$(GO) test ./internal/ads -run '^$$' -fuzz FuzzSetOps $(FUZZFLAGS)
	$(GO) test ./internal/ads -run '^$$' -fuzz FuzzProofTreeVerify $(FUZZFLAGS)
	$(GO) test ./internal/ads -run '^$$' -fuzz FuzzVerifyMember $(FUZZFLAGS)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzStoreOpen $(FUZZFLAGS)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzReadWireDecode $(FUZZFLAGS)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzOpsWireDecode $(FUZZFLAGS)
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzStreamFrame $(FUZZFLAGS)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzStreamFrame $(FUZZFLAGS)
	$(GO) test ./internal/repl -run '^$$' -fuzz FuzzLogPageDecode $(FUZZFLAGS)
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzImageInstall $(FUZZFLAGS)
	$(GO) test ./internal/merkle -run '^$$' -fuzz FuzzSum256 $(FUZZFLAGS)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzParseExposition $(FUZZFLAGS)

# Docs gate: relative markdown links in README.md and docs/ must resolve,
# docs/API.md must document every route registered on the gateway mux, and
# every registered metric name (grub_* string literal in non-test source)
# must be documented in docs/API.md. A live half then boots a gateway,
# scrapes /metrics, and requires the exposition to parse strictly with
# every served grub_* family documented — catching names built at runtime.
# Every `go run ./<path>` in those docs and the verify skill must name a
# main package in this repo.
docs-check:
	$(GO) run ./tools/docscheck

# test runs the allocation pins, which skip under the race detector.
check: build vet fmt-check test race docs-check

clean:
	$(GO) clean ./...
	rm -f BENCH_e2e.jsonl
