# Developer targets for eedtree. `make check` is the full gate: vet, the
# race-enabled test suite, and a short fuzz smoke over every parser.

GO ?= go
FUZZTIME ?= 10s
BENCH ?= .
BENCHTIME ?= 1s
BENCHCOUNT ?= 6
OBSCOUNT ?= 5
OBSMAX ?= 2

.PHONY: all build test check vet race perfbench fuzz-smoke bench bench-json bench-save service-bench obs-check fault-check chaos-soak chip-bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check: the robustness gate — static analysis, race-enabled tests, the
# benchmark module's build, and a short fuzz pass over the input parsers.
check: vet race perfbench fuzz-smoke

# perfbench: perfbench/ is a separate Go module that imports the engine's
# API; vet and test it so a change that breaks the benchmark fails here
# rather than at the next benchmark run.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseDeck -fuzztime=$(FUZZTIME) ./internal/circuit/
	$(GO) test -run=NONE -fuzz=FuzzParseSource -fuzztime=$(FUZZTIME) ./internal/circuit/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/rlctree/
	$(GO) test -run=NONE -fuzz=FuzzElementEdits -fuzztime=$(FUZZTIME) ./internal/rlctree/
	$(GO) test -run=NONE -fuzz=FuzzStructuralEdits -fuzztime=$(FUZZTIME) ./internal/incr/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/spef/
	$(GO) test -run=NONE -fuzz=FuzzStream -fuzztime=$(FUZZTIME) ./internal/spef/
	$(GO) test -run=NONE -fuzz=FuzzFormatRoundTrip -fuzztime=$(FUZZTIME) ./internal/unit/
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/eedsrv/
	$(GO) test -run=NONE -fuzz=FuzzParseFaultSpec -fuzztime=$(FUZZTIME) ./internal/faultinj/

# bench: quick interactive benchmark run (BENCH selects a pattern).
bench:
	$(GO) test -run=NONE -bench=$(BENCH) -benchtime=$(BENCHTIME) -benchmem .

# bench-json: record the repository benchmark baseline. Writes the raw
# test2json event stream (bench-baseline.json, for machines) and a
# benchstat-ready text file (bench-baseline.txt) distilled from the same
# run, so future PRs can measure their perf trajectory with
# `benchstat bench-baseline.txt <new>.txt`. BENCHCOUNT=6 gives benchstat
# enough samples for confidence intervals.
bench-json:
	$(GO) test -run=NONE -bench=$(BENCH) -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -benchmem -json . > bench-baseline.json
	$(GO) run ./cmd/bench2text < bench-baseline.json > bench-baseline.txt
	@echo "wrote bench-baseline.json and bench-baseline.txt"

# bench-save: record the incremental-vs-rebuild optimizer families — the
# value-edit sizing pair (PR 5) plus the structural topology pairs
# (PR 10) — as BENCH_PR10.json (raw test2json events) and BENCH_PR10.txt
# (benchstat-comparable). The sizing pair overlaps the committed
# BENCH_PR5 baseline, so the cross-PR trajectory is one command:
# `go run ./cmd/bench2text -compare BENCH_PR5.json BENCH_PR10.json`.
bench-save:
	$(GO) test -run=NONE -bench='BenchmarkOptimizeWidthsIncremental$$|BenchmarkOptimizeWidthsRebuild$$|BenchmarkInsertRepeatersTopoIncremental$$|BenchmarkInsertRepeatersTopoRebuild$$|BenchmarkExploreTopologiesIncremental$$|BenchmarkExploreTopologiesRebuild$$' \
		-benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -benchmem -json ./internal/opt/ > BENCH_PR10.json
	$(GO) run ./cmd/bench2text < BENCH_PR10.json > BENCH_PR10.txt
	@echo "wrote BENCH_PR10.json and BENCH_PR10.txt"

# service-bench: record the delay-service load benchmark (the PR 6
# headline numbers) as BENCH_PR6.json and BENCH_PR6.txt: per-operation
# latency percentiles and total throughput of an in-process eedd under a
# mixed point-query / sweep / edit stream, with the warm point-query p50
# asserted under 1ms on the 64-segment example net.
LOADTIME ?= 30s
LOADCONC ?= 8
service-bench:
	$(GO) run ./cmd/eedload -net examples/nets/line64.tree -d $(LOADTIME) -c $(LOADCONC) \
		-mix delay=90,analyze=4,edit=4,batch=2 -out BENCH_PR6 -assert-warm-p50 1ms
	@echo "wrote BENCH_PR6.json and BENCH_PR6.txt"

# obs-check: the observability overhead gate (GUIDE.md §10). Runs the
# instrumented hot-path benchmark and its uninstrumented twin back to back
# and fails if the instrumented median ns/op is more than OBSMAX percent
# above the baseline. The second invocation is the flight-recorder gate
# (GUIDE.md §15): the same sweep plus one wide-event Record per unit must
# stay within the same budget of the instrumented run.
obs-check:
	$(GO) test -run=NONE -bench='BenchmarkAnalyzeTreeParallel$$|BenchmarkAnalyzeTreeParallelBaseline$$' \
		-benchtime=$(BENCHTIME) -count=$(OBSCOUNT) -json . | $(GO) run ./cmd/obscheck -max $(OBSMAX)
	$(GO) test -run=NONE -bench='BenchmarkAnalyzeTreeParallel$$|BenchmarkAnalyzeTreeParallelFlightArmed$$' \
		-benchtime=$(BENCHTIME) -count=$(OBSCOUNT) -json . | \
		$(GO) run ./cmd/obscheck -bench BenchmarkAnalyzeTreeParallelFlightArmed -baseline BenchmarkAnalyzeTreeParallel -max $(OBSMAX)

# fault-check: the fault-injection overhead gate (GUIDE.md §13). The
# dormant-armed query benchmark (a plan is Active but every point has
# p=0) must stay within OBSMAX percent of the unarmed twin, proving the
# framework's hot-path cost is a couple of atomic loads.
fault-check:
	$(GO) test -run=NONE -bench='BenchmarkSessionQuery$$|BenchmarkSessionQueryFaultsArmed$$' \
		-benchtime=$(BENCHTIME) -count=$(OBSCOUNT) -json ./internal/engine/ | \
		$(GO) run ./cmd/obscheck -bench BenchmarkSessionQueryFaultsArmed -baseline BenchmarkSessionQuery -max $(OBSMAX)

# chaos-soak: the resilience gate (the PR 7 headline numbers). Builds a
# real eedd, then drives it through the eedchaos fault schedule — stalls,
# panics, dropped connections, eviction storms, queue timeouts, numeric
# faults, and SIGTERM/restart cycles — asserting zero bit-incorrect
# payloads against direct core analysis, a bounded error budget, and
# post-fault warm-p50 recovery. Writes BENCH_PR7.json and BENCH_PR7.txt.
CHAOSTIME ?= 30s
CHAOSCONC ?= 8
chaos-soak:
	$(GO) build -o eedd ./cmd/eedd/
	$(GO) run ./cmd/eedchaos -eedd ./eedd -net examples/nets/line64.tree \
		-d $(CHAOSTIME) -c $(CHAOSCONC) -seed 7 -out BENCH_PR7 \
		-budget 1.0 -p50-gate 5ms -recover-within 5s
	@echo "wrote BENCH_PR7.json and BENCH_PR7.txt"

# chip-bench: the full-chip streaming gate (the PR 8 headline numbers).
# Streams a synthetic 1M-net / ~50-sections-per-net design (≈50M
# sections of SPEF text generated on the fly) through the bounded
# parse→analyze→aggregate pipeline, verifies every per-net result
# bit-identical to the serial slow twin, and asserts the flat-RSS and
# throughput bounds. Writes BENCH_PR8.json and BENCH_PR8.txt.
CHIPNETS ?= 1000000
CHIPSECTIONS ?= 50
CHIPRSSMB ?= 512
CHIPNPS ?= 1000
chip-bench:
	$(GO) run ./cmd/chipflow -synth $(CHIPNETS) -sections $(CHIPSECTIONS) \
		-seed 1 -topk 10 -verify -out BENCH_PR8 \
		-assert-rss-mb $(CHIPRSSMB) -assert-nps $(CHIPNPS)
	@echo "wrote BENCH_PR8.json and BENCH_PR8.txt"
