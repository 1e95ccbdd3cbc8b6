# Tiers:
#   make test     — tier-1 (the gate every PR must keep green)
#   make check    — tier-2: gofmt + vet + race-enabled tests (catches data
#                   races in the parallel analysis engine) + the doc-comment
#                   gate (internal/doccheck fails on undocumented exported
#                   API) + the result-cache acceptance tests under -race
#                   (cached Reports byte-identical to fresh across
#                   strict/lenient × row/columnar × sharded; N concurrent
#                   identical uploads coalesce onto one pipeline run) + the
#                   property tests that pin the indexed clustering kernels
#                   to their brute-force references + a -count 10 stress
#                   run of the timing-sensitive packages (foldsvc,
#                   session, pipeline, faultinject, rescache) so timing
#                   flakes surface when introduced + a short fuzz run over
#                   the trace decoder (row and columnar paths) + a build of
#                   every example the docs reference + the benchmark
#                   regression gate (benchjson -gate fails on any >10%
#                   ns/op or B/op regression between the two newest
#                   BENCH_<date>.json snapshots from the same runner)
#   make chaos    — the fault-injection suite under the race detector:
#                   full traces driven through the batch, streaming and
#                   HTTP analysis paths with truncation, bit-flips, short
#                   reads, transient errors and stalls injected (also part
#                   of make check)
#   make bench    — run the benchmark suite and record a trajectory
#                   snapshot in BENCH_<date>.json via cmd/benchjson (which
#                   also diffs against the previous snapshot)
#   make benchmem — memory tier: just the streaming-vs-batch allocation
#                   comparison, recorded in BENCH_MEM_<date>.json
#   make e2e-dist — distributed end-to-end: an in-process foldsvc
#                   coordinator fanning shards out to 3 in-process workers
#                   must reproduce the local single-pass Report and
#                   survive worker loss (degraded report, not a 500)
#   make e2e-diff — cross-run diff end-to-end over HTTP: /v1/diff by
#                   upload, by cached digest reference (zero re-analysis)
#                   and with a degraded side, under the race detector
#   make e2e-session — live-session end-to-end under the race detector:
#                   journaled appends, crash recovery to a report
#                   deep-equal to an uninterrupted run, SSE resume via
#                   Last-Event-ID with no duplicated or skipped
#                   snapshots, drain, budgets and the client helper
#                   (also part of make check)
#   make bench-diff — run just BenchmarkDiff (needs BENCH_SCALE=large)
#                   and fold it into today's BENCH snapshot via
#                   benchjson -merge

GO        ?= go
DATE      := $(shell date +%Y-%m-%d)
# Narrow or speed up a bench run: make bench BENCH=AnalyzePipeline BENCHTIME=1x
BENCH     ?= .
BENCHTIME ?= 1s
FUZZTIME  ?= 10s
# The timing-sensitive packages, run ten times over in make check so a
# new timing flake fails the gate when it is introduced.
STRESS_PKGS := ./internal/foldsvc ./internal/session ./internal/pipeline ./internal/faultinject ./internal/rescache
# BENCH_SCALE=large unlocks the expensive baselines: the quadratic
# AutoEps/Silhouette reference kernels at n=100k and the end-to-end
# clustering of a ~100k-burst trace (tracegen -preset bench-large).
BENCH_SCALE ?=

.PHONY: build test check chaos bench benchmem e2e-dist e2e-diff e2e-session bench-diff

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -count 1 ./internal/doccheck
	$(GO) test -race ./...
	$(GO) test -count 10 $(STRESS_PKGS)
	$(GO) test -race -count 1 -run 'TestCacheEquivalence|TestCacheSingleflight' ./internal/foldsvc/
	$(GO) test -run 'Property' -count 1 ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzReadFrom$$ -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadFromLenient -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadIntoBlock -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) build ./examples/...
	$(GO) run ./cmd/benchjson -gate -tol 10 -cur newest
	$(MAKE) chaos
	$(MAKE) e2e-session

chaos:
	$(GO) test -race -count 1 ./internal/faultinject/

e2e-session:
	$(GO) test -race -count 1 -run 'TestSession|TestClientSession|TestSubscriber|TestChunks' ./internal/session/ ./internal/foldsvc/

bench:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -timeout 60m . \
		| BENCH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchjson -out BENCH_$(DATE).json

e2e-dist:
	$(GO) test -race -count 1 -run 'TestE2EDist|TestDist' ./internal/foldsvc/

e2e-diff:
	$(GO) test -race -count 1 -run 'TestDiff' ./internal/foldsvc/ ./internal/diff/

bench-diff:
	BENCH_SCALE=large $(GO) test -run '^$$' -bench BenchmarkDiff -benchmem -benchtime $(BENCHTIME) -timeout 60m . \
		| BENCH_SCALE=large $(GO) run ./cmd/benchjson -merge -out BENCH_$(DATE).json

benchmem:
	$(GO) test -run '^$$' -bench StreamVsBatchMemory -benchmem -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_MEM_$(DATE).json
