# Development targets. `make verify` is the full pre-merge gate: vet plus
# every test under the race detector.

GO ?= go

.PHONY: all build test verify race bench bench-json bench-compare profile profile-stencil profile-mgbuild fuzz loadsmoke sweepsmoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: static analysis, a short FuzzParseDeck
# exploration on top of the checked-in seeds, the whole suite under the race
# detector (it includes every determinism contract: reuse and warm-start
# bit-identity, the reference-solve golden hashes, stencil kernels against
# the CSR reference, deck and service goldens,
# coalescing/admission/drain, and the sharded/resumable-sweep identities),
# one pass over every benchmark so the harness itself cannot rot, and a
# single-iteration smoke run of the bench-json pipeline.
verify:
	$(GO) vet ./...
	$(GO) test -fuzz '^FuzzParseDeck$$' -fuzztime 10s -run '^FuzzParseDeck$$' ./internal/deck
	$(GO) test -race ./...
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(MAKE) bench-json BENCHTIME=1x BENCHCOUNT=1 BENCH_OUT=/dev/null

race:
	$(GO) test -race ./...

# loadsmoke drives an in-process ttsvd with the hotspot key mix — a quick
# end-to-end check that serving, coalescing and the warm pool hold up under
# concurrent load — and reports req/s with p50/p99 latency.
loadsmoke:
	$(GO) run ./cmd/ttsvload -inproc -n 400 -c 8 -mix hotspot

# sweepsmoke drives a small sharded sweep through an in-process ttsvd's
# streaming /sweep endpoint — a quick end-to-end check that shard
# partitioning and per-point NDJSON progress streaming jointly deliver every
# sweep point exactly once.
sweepsmoke:
	$(GO) run ./cmd/ttsvload -inproc -sweep -points 12 -shards 2

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-json archives the reference-solver costs (the BenchmarkReference*
# family, including the multigrid variants with their cgiters/mglevels
# metrics, plus the SweepReuse/SweepNoReuse A/B pair) as JSON. The committed
# BENCH_ref.json is regenerated with the defaults below — plain `make
# bench-json` — so archive and compare always run the identical
# configuration: benchjson collapses the -count runs to each benchmark's
# fastest (min-of-N filters the additive scheduling noise a shared host
# stacks on every run — on a loaded 1-CPU container single runs of the same
# benchmark spread over ±40%, while the minima are stable to a few percent),
# and keeping BENCHTIME equal on both sides matters too: allocation-heavy
# benchmarks like ...RefinedFresh pay benchtime-dependent GC amortization,
# so a 5x archive is not comparable to a 2x run even noise-free.
BENCHTIME ?= 2x
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_ref.json
BENCH_PATTERN ?= 'Reference|SweepReuse|SweepNoReuse'
# Captured into a shell variable rather than piped directly: in a plain
# pipe a failing `go test` is masked by the parser's exit status.
bench-json:
	@out=$$($(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchtime $(BENCHTIME) -count $(BENCHCOUNT) .) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-compare guards the solver's costs: it reruns the reference
# benchmarks (min-of-BENCHCOUNT, like the archive) and diffs them against
# the committed BENCH_ref.json, failing when any host-independent column —
# B/op, allocs/op or the cgiters CG iteration count — regresses by more than
# BENCH_ALLOC_THRESHOLD percent. ns/op is printed next to them but not
# gated: on a shared host its run-to-run spread exceeds any bound tight
# enough to catch a real regression, so wall-time claims need alternating
# runs on one quiet host instead.
BENCH_ALLOC_THRESHOLD ?= 10
bench-compare:
	@out=$$($(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchtime $(BENCHTIME) -count $(BENCHCOUNT) .) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -compare BENCH_ref.json -alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# profile captures CPU and allocation pprof profiles of the sweep-reuse
# benchmark (the end-to-end sweep hot path: stencil refill, recycled
# hierarchy rebuild, pooled CG). Inspect with
#   go tool pprof profiles/repro.test profiles/sweep_cpu.pprof
PROFILE_DIR ?= profiles
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench SweepReuseFVM -benchtime 3x \
		-cpuprofile $(PROFILE_DIR)/sweep_cpu.pprof \
		-memprofile $(PROFILE_DIR)/sweep_mem.pprof \
		-o $(PROFILE_DIR)/repro.test .
	@echo "profiles written to $(PROFILE_DIR)/"

# profile-stencil captures CPU and allocation pprof profiles of the
# matrix-free stencil matvec microbenchmark (the tentpole kernel of the
# structured-grid operator). Inspect with
#   go tool pprof profiles/sparse.test profiles/stencil_cpu.pprof
profile-stencil:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench StencilMatVec -benchtime 200x \
		-cpuprofile $(PROFILE_DIR)/stencil_cpu.pprof \
		-memprofile $(PROFILE_DIR)/stencil_mem.pprof \
		-o $(PROFILE_DIR)/sparse.test ./internal/sparse
	@echo "profiles written to $(PROFILE_DIR)/"

# profile-mgbuild captures CPU and allocation pprof profiles of the fresh
# refined reference solves at 2x and 4x, where assembly and the geometric
# hierarchy build are a large share of each solve. Inspect with
#   go tool pprof profiles/repro.test profiles/mgbuild_cpu.pprof
profile-mgbuild:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'ReferenceSolveRefinedFresh$$|ReferenceMGRefined4$$' -benchtime 5x \
		-cpuprofile $(PROFILE_DIR)/mgbuild_cpu.pprof \
		-memprofile $(PROFILE_DIR)/mgbuild_mem.pprof \
		-o $(PROFILE_DIR)/repro.test .
	@echo "profiles written to $(PROFILE_DIR)/"

# Seed corpora run on every plain `go test`; this target explores further.
# By default it gives every fuzz target in the repo a bounded FUZZTIME run
# (go test -fuzz accepts only one target per package, hence the loop).
# Narrow to one target with
#   make fuzz FUZZ=FuzzParseDeck PKG=./internal/deck FUZZTIME=30s
FUZZTIME ?= 10s
FUZZ ?=
PKG ?=
FUZZ_TARGETS = \
	FuzzParseDeck:./internal/deck \
	FuzzLoadBlockConfig:./internal/stack \
	FuzzMaterialUnmarshalJSON:./internal/materials
fuzz:
ifneq ($(FUZZ),)
	$(GO) test -fuzz '^$(FUZZ)$$' -fuzztime $(FUZZTIME) -run '^$(FUZZ)$$' $(PKG)
else
	@for t in $(FUZZ_TARGETS); do \
		f=$${t%%:*}; p=$${t##*:}; \
		echo "== fuzz $$f ($$p, $(FUZZTIME)) =="; \
		$(GO) test -fuzz "^$$f$$" -fuzztime $(FUZZTIME) -run "^$$f$$" $$p || exit 1; \
	done
endif

clean:
	$(GO) clean ./...
