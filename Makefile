# Convenience targets for the nbtinoc reproduction.

GO ?= go
# BENCHTIME feeds -benchtime for `make bench`; CI smoke runs use 1x.
BENCHTIME ?= 1x
# BENCHCOUNT feeds -count: benchjson folds the repeats of a benchmark
# into one row with the median ns/op and its MAD, and bench-check gates
# sec/op on that median.
BENCHCOUNT ?= 1
# BENCH_LABEL names the run recorded into BENCH_engine.json; the short
# commit hash makes each data point identifiable, and benchjson replaces
# a same-label run in place, so re-benching one commit never appends
# duplicates. Falls back to "current" outside a git checkout.
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo current)
# SEC_TOL is the allowed sec/op regression band (percent) for
# bench-check; wider than the allocs gate because 1x timings are noisy
# (benchjson's own default is 25%, but run-to-run swings on small
# containers reach ±30% even for second-long benchmarks).
SEC_TOL ?= 40
# COVER_MIN is the minimum acceptable total statement coverage (percent)
# for `make cover`; 0 disables the gate. CI pins a floor below the
# current total so coverage can only erode deliberately.
COVER_MIN ?= 0

# SERVE_ADDR is where `make serve` binds the simulation daemon.
SERVE_ADDR ?= 127.0.0.1:8310

.PHONY: all build test test-race test-debug vet lint loc bench bench-check tables tables-quick examples fuzz cover serve clean clean-cache

all: build vet lint test test-race

build:
	$(GO) build ./...

# loc prints the non-test Go line count of internal/ and cmd/, the one
# size figure simplicity changes and ROADMAP.md quote.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l

# nbtilint: custom determinism analyzers (internal/lint) run through
# go vet's -vettool protocol, so the build system handles package
# loading. The tree must stay at zero diagnostics; waivers need an
# //nbtilint:allow <analyzer> <reason> directive.
lint:
	$(GO) build -o bin/nbtilint ./cmd/nbtilint
	$(GO) vet -vettool=$(abspath bin/nbtilint) ./...

test:
	$(GO) test ./...

# The scenario drivers fan out across a worker pool; the race detector
# guards the no-shared-state invariant the parallel harness relies on.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The nbtidebug build tag turns on the active-set invariant check
# (every unit skipped by Network.Step must be provably quiescent).
test-debug:
	$(GO) test -tags nbtidebug ./internal/noc ./internal/sim ./internal/core

# Benchmark-scale regeneration of every table/figure, recorded into the
# perf-trajectory file BENCH_engine.json via cmd/benchjson.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run '^$$' . | tee bench_output.txt
	bin/benchjson -label $(BENCH_LABEL) -o BENCH_engine.json -append < bench_output.txt

# bench plus the allocs/op, B/op and sec/op regression gates against the
# pinned baseline (the CI smoke job).
bench-check: bench
	bin/benchjson -label check -o /tmp/bench_check.json -baseline bench_baseline.json -sec-tol $(SEC_TOL) < bench_output.txt

# Full default-window regeneration of every table (several minutes).
tables:
	$(GO) run ./cmd/tables -table all

tables-quick:
	$(GO) run ./cmd/tables -table all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/synthetic-sweep
	$(GO) run ./examples/realtraffic
	$(GO) run ./examples/areareport
	$(GO) run ./examples/lifetime
	$(GO) run ./examples/wearleveling

fuzz:
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=30s ./internal/traffic
	$(GO) test -run='^FuzzSpecJSON$$' -fuzz=FuzzSpecJSON -fuzztime=30s ./internal/sim
	$(GO) test -run='^FuzzHandoffJSON$$' -fuzz=FuzzHandoffJSON -fuzztime=30s ./internal/sweep
	$(GO) test -run='^FuzzGridJSON$$' -fuzz=FuzzGridJSON -fuzztime=30s ./internal/sweep

# Build and run the simulation service locally (SIGINT/SIGTERM drains).
# Author request bodies with `nbtisim -emit-spec`, then:
#   curl -d @spec.json http://$(SERVE_ADDR)/jobs
serve:
	$(GO) build -o bin/nbtisimd ./cmd/nbtisimd
	bin/nbtisimd -addr $(SERVE_ADDR) -cache-dir .nbticache -v

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/, "", $$NF); print $$NF}'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "cover: total %.1f%% is below COVER_MIN=%s%%\n", t, min; exit 1 } \
		if (min + 0 > 0) printf "cover: total %.1f%% meets COVER_MIN=%s%%\n", t, min }'

clean:
	rm -f cover.out test_output.txt bench_output.txt cold.txt warm.txt /tmp/bench_check.json
	rm -f spec.json ref.json got.json nbtisimd.log
	rm -rf bin svc-cache

# The result cache survives a plain `clean` so local stores persist;
# clean-cache drops the repo-local store explicitly.
clean-cache:
	rm -rf .nbticache
