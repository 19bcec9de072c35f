# Developer targets for eedtree. `make check` is the full gate: vet, the
# race-enabled test suite, and a short fuzz smoke over every parser.

GO ?= go
FUZZTIME ?= 10s
BENCH ?= .
BENCHTIME ?= 1s
# Minimizing a new input is capped at 100 runs: at its 60 s default,
# minimization takes most of a 10 s FUZZTIME, and the target spends it at
# 0 executions per second.
FUZZFLAGS = -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x

.PHONY: all build test check vet race perfbench fuzz-smoke bench service-bench chaos-soak chip-bench loc

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
# benchmark module's build, and a short fuzz pass over the input parsers
# and the step-response inversion.
check: vet race perfbench fuzz-smoke

# perfbench: perfbench/ is a separate Go module that imports the engine's
# API; vet and test it so a change that breaks the benchmark fails here
# rather than at the next benchmark run.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# fuzz-smoke: each target fuzzes for FUZZTIME, with FUZZFLAGS.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseDeck $(FUZZFLAGS) ./internal/circuit/
	$(GO) test -run=NONE -fuzz=FuzzParseSource $(FUZZFLAGS) ./internal/circuit/
	$(GO) test -run=NONE -fuzz=FuzzParse $(FUZZFLAGS) ./internal/rlctree/
	$(GO) test -run=NONE -fuzz=FuzzElementEdits $(FUZZFLAGS) ./internal/rlctree/
	$(GO) test -run=NONE -fuzz=FuzzStructuralEdits $(FUZZFLAGS) ./internal/incr/
	$(GO) test -run=NONE -fuzz=FuzzParse $(FUZZFLAGS) ./internal/spef/
	$(GO) test -run=NONE -fuzz=FuzzStream $(FUZZFLAGS) ./internal/spef/
	$(GO) test -run=NONE -fuzz=FuzzNetTree $(FUZZFLAGS) ./internal/spef/
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' $(FUZZFLAGS) ./internal/unit/
	$(GO) test -run=NONE -fuzz=FuzzFormatRoundTrip $(FUZZFLAGS) ./internal/unit/
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest $(FUZZFLAGS) ./internal/eedsrv/
	$(GO) test -run=NONE -fuzz=FuzzParseFaultSpec $(FUZZFLAGS) ./internal/faultinj/
	$(GO) test -run=NONE -fuzz=FuzzScaledInverse $(FUZZFLAGS) ./internal/core/

# loc: Go line counts (blank and comment lines included) under internal/
# and cmd/, without and with tests — the tally a deletion is measured by.
loc:
	@echo "non-test:   $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "with tests: $$(find internal cmd -name '*.go' -exec cat {} + | wc -l)"

# bench: quick interactive benchmark run (BENCH selects a pattern).
bench:
	$(GO) test -run=NONE -bench=$(BENCH) -benchtime=$(BENCHTIME) -benchmem .

# service-bench: the delay-service load gate. eedload's steady schedule
# drives an in-process eedd with a mixed point-query / sweep / edit /
# batch stream, checks every payload bit for bit against direct core
# analysis, prints per-operation latency percentiles and throughput, and
# fails on any bit-incorrect payload, on more than 1% of ops failing at
# the first attempt (healed or not), or if the warm point-query p50 on
# the 64-segment example net exceeds 1ms.
LOADTIME ?= 30s
LOADCONC ?= 8
service-bench:
	$(GO) run ./cmd/eedload -net examples/nets/line64.tree -d $(LOADTIME) -c $(LOADCONC) \
		-mix delay=90,analyze=4,edit=4,batch=2 -assert-warm-p50 1ms

# chaos-soak: the resilience gate. Builds a real eedd, then drives it
# through eedload's chaos schedule — stalls, panics, dropped
# connections, eviction storms, queue timeouts, numeric faults, and a
# SIGTERM/restart cycle — asserting zero bit-incorrect payloads against
# direct core analysis, a bounded error budget, and post-fault warm-p50
# recovery. The verdict and per-phase numbers go to stdout.
CHAOSTIME ?= 30s
CHAOSCONC ?= 8
chaos-soak:
	$(GO) build -o eedd ./cmd/eedd/
	$(GO) run ./cmd/eedload -chaos -eedd ./eedd -net examples/nets/line64.tree \
		-d $(CHAOSTIME) -c $(CHAOSCONC) -seed 7 -mix delay=58,analyze=15,edit=27 \
		-budget 1.0 -assert-warm-p50 5ms -recover-within 5s

# chip-bench: the full-chip streaming gate. Streams a synthetic 1M-net /
# ~50-sections-per-net design (≈50M sections of SPEF text generated on
# the fly) through the bounded parse→analyze→aggregate pipeline, verifies
# every per-net result bit-identical to the serial slow twin, and asserts
# the flat-RSS and throughput bounds. The report goes to stdout.
CHIPNETS ?= 1000000
CHIPSECTIONS ?= 50
CHIPRSSMB ?= 512
CHIPNPS ?= 1000
chip-bench:
	$(GO) run ./cmd/chipflow -synth $(CHIPNETS) -sections $(CHIPSECTIONS) \
		-seed 1 -topk 10 -verify \
		-assert-rss-mb $(CHIPRSSMB) -assert-nps $(CHIPNPS)
