# Tiers:
#   make test     — tier-1 (the gate every PR must keep green)
#   make check    — tier-2: gofmt + vet + race-enabled tests (catches data
#                   races in the parallel analysis engine) + the doc-comment
#                   gate (internal/doccheck fails on undocumented exported
#                   API, stale pkg.Name mentions in the docs, and exported
#                   internal/ names that no non-test file calls, resolved
#                   with go/types) + the result-cache
#                   acceptance tests under -race
#                   (cached Reports byte-identical to fresh across
#                   strict/lenient × single-node/sharded; N concurrent
#                   identical uploads coalesce onto one pipeline run) + the
#                   property tests that pin the indexed clustering kernels
#                   to their brute-force references + the k-d tree,
#                   auto-eps and ClusterBursts tests under -race -count 10
#                   (the tree build starts goroutines) + a -count 10 stress
#                   run of the timing-sensitive packages (foldsvc,
#                   session, pipeline, faultinject, rescache) so timing
#                   flakes surface when introduced + the RunContext tests
#                   under -race -count 20 (the read-ahead decoder's
#                   hand-off is the pipeline's only concurrent code, and
#                   they drive every way a run ends) + a short fuzz run over
#                   the trace decoder (whole-trace reads, salvage reads,
#                   and block reads against the record-decoder oracle in
#                   both modes) and over the validity check (Validate on
#                   a decoded trace against the check streamed over its
#                   bytes) + a build of
#                   every example the docs reference + make chaos +
#                   make e2e-session + last, so a red gate stops no
#                   other step, the benchmark regression gate
#                   (benchjson -gate fails on any >10% median ns/op or
#                   B/op regression between the two newest
#                   BENCH_<date>.json snapshots from the same runner)
#   make chaos    — the fault-injection suite under the race detector:
#                   full traces driven through the batch, streaming and
#                   HTTP analysis paths with truncation, bit-flips, short
#                   reads, transient errors and stalls injected (also part
#                   of make check)
#   make bench    — run the benchmark suite BENCHCOUNT times (default 3)
#                   and record the medians as a trajectory snapshot in
#                   BENCH_<date>.json via cmd/benchjson (which also diffs
#                   against the previous snapshot)
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
#   make bench-pair PARENT=<rev> — record a parent/change pair: build the
#                   root test binaries of PARENT (extracted with git
#                   archive into a temporary directory) and of the
#                   working tree once, run them in BENCHCOUNT alternating
#                   rounds of -test.count 1 (which goes first alternates),
#                   and write the parent's runs to BENCH_<date>.N.json and
#                   the change's to .N+1, so `benchjson -gate -cur newest`
#                   compares the change with the parent under one state of
#                   the machine

GO        ?= go
DATE      := $(shell date +%Y-%m-%d)
# Narrow or speed up a bench run: make bench BENCH=AnalyzePipeline BENCHTIME=1x
BENCH     ?= .
BENCHTIME ?= 1s
# Runs per benchmark; benchjson records the median of each, so one slow
# run on a noisy machine does not trip the gate.
BENCHCOUNT ?= 3
FUZZTIME  ?= 10s
# The timing-sensitive packages, run ten times over in make check so a
# new timing flake fails the gate when it is introduced.
STRESS_PKGS := ./internal/foldsvc ./internal/session ./internal/pipeline ./internal/faultinject ./internal/rescache
# BENCH_SCALE=large unlocks the expensive baselines: the quadratic
# AutoEps/Silhouette reference kernels at n=100k and the end-to-end
# clustering of a ~100k-burst trace (tracegen -preset bench-large).
BENCH_SCALE ?=

.PHONY: build test check chaos bench benchmem e2e-dist e2e-diff e2e-session bench-diff bench-pair

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
	$(GO) test -race -count 20 -run '^TestRunContext' ./internal/pipeline
	$(GO) test -race -count 1 -run 'TestCacheEquivalence|TestCacheSingleflight' ./internal/foldsvc/
	$(GO) test -run 'Property' -count 1 ./internal/cluster
	$(GO) test -race -count 10 -run 'KDTree|KNN|AutoEps|ClusterBursts' ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzReadFrom$$ -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadFromLenient -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadIntoBlock -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzCheckedMatchesValidate -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) build ./examples/...
	$(MAKE) chaos
	$(MAKE) e2e-session
	$(GO) run ./cmd/benchjson -gate -tol 10 -cur newest

chaos:
	$(GO) test -race -count 1 ./internal/faultinject/

e2e-session:
	$(GO) test -race -count 1 -run 'TestSession|TestClientSession|TestSubscriber|TestChunks' ./internal/session/ ./internal/foldsvc/

bench:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -timeout 60m . \
		| BENCH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchjson -out BENCH_$(DATE).json

e2e-dist:
	$(GO) test -race -count 1 -run 'TestE2EDist|TestDist' ./internal/foldsvc/

e2e-diff:
	$(GO) test -race -count 1 -run 'TestDiff' ./internal/foldsvc/ ./internal/diff/

bench-diff:
	BENCH_SCALE=large $(GO) test -run '^$$' -bench BenchmarkDiff -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -timeout 60m . \
		| BENCH_SCALE=large $(GO) run ./cmd/benchjson -merge -out BENCH_$(DATE).json

bench-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-pair PARENT=<rev>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent"; git archive "$(PARENT)" | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) test -c -o "$$tmp/parent.test" .); \
	$(GO) test -c -o "$$tmp/change.test" .; \
	run() { (cd "$$1" && BENCH_SCALE=$(BENCH_SCALE) "$$2" -test.run '^$$' -test.bench '$(BENCH)' \
		-test.benchmem -test.benchtime $(BENCHTIME) -test.count 1 -test.timeout 60m); }; \
	for i in $$(seq 1 $(BENCHCOUNT)); do \
		if [ $$((i % 2)) -eq 1 ]; then \
			run "$$tmp/parent" "$$tmp/parent.test" >> "$$tmp/parent.txt"; run . "$$tmp/change.test" >> "$$tmp/change.txt"; \
		else \
			run . "$$tmp/change.test" >> "$$tmp/change.txt"; run "$$tmp/parent" "$$tmp/parent.test" >> "$$tmp/parent.txt"; \
		fi; \
	done; \
	snap() { if [ "$$1" -eq 1 ]; then echo BENCH_$(DATE).json; else echo BENCH_$(DATE).$$1.json; fi; }; \
	n=1; while [ -e "$$(snap $$n)" ]; do n=$$((n + 1)); done; \
	BENCH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchjson -prev none -out "$$(snap $$n)" < "$$tmp/parent.txt"; \
	BENCH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchjson -out "$$(snap $$((n + 1)))" < "$$tmp/change.txt"

benchmem:
	$(GO) test -run '^$$' -bench StreamVsBatchMemory -benchmem -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_MEM_$(DATE).json
