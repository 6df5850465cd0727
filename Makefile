# Development targets. `make verify` is the full pre-merge gate: vet plus
# every test under the race detector.

GO ?= go

.PHONY: all build test verify race bench bench-json bench-compare profile profile-stencil profile-mgbuild fuzz clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: a gofmt check (it lists any unformatted
# file and fails), static analysis, an arm64 build of everything (the
# pure-Go fallback of the amd64 assembly must keep compiling; vet does not
# notice a function left without a body there), a check that neither the
# arm64 compiler nor the amd64 one at GOAMD64=v3 fused a multiply-add in
# internal/linalg (its factors and sweeps round every product on its own,
# as the baseline amd64 build does, so all give the same bits), a short
# FuzzParseDeck and FuzzServeJSON (the JSON lowerings whose scenarios key
# ttsvd's coalescing) exploration on top of the checked-in seeds, the whole suite under the race
# detector (it includes every determinism contract: reuse bit-identity,
# the reference-solve golden hashes, stencil kernels against
# the CSR reference, deck and service goldens,
# coalescing/admission/drain, and the sharded/resumable-sweep identities;
# it fails if a test skips there that RACE_SKIPS does not list),
# three shuffled race passes over the packages whose tests reach fem's
# process-wide idle solver contexts (every solve given a nil context does)
# or core's pool of ladder scratch (every analytic solve does),
# so no test there depends on what ran before it, and over the flight group
# and the packages whose concurrency runs through it (sweep's cache, serve's
# coalescing, plan's tiles),
# one pass over every benchmark so the harness itself cannot rot, a
# single-iteration smoke run of the bench-json pipeline, and vet plus the
# tests of the separate bench module, which `./...` never builds (and
# `go test` runs only part of vet): an internal API change that breaks the
# benchmark fails here.
# The tests the race pass may skip, as package.Test, each for its reason:
# core's TestSteadySolveAllocs and sweep's TestCacheHitAllocs count the
# allocations sync.Pool saves, and the race detector's pool drops puts at
# random; linalg's TestBandedLanesRun skips on a host that exposes no CPU
# flags (/proc/cpuinfo) to check the AVX2 lanes against.
RACE_SKIPS = \
	repro/internal/core.TestSteadySolveAllocs \
	repro/internal/sweep.TestCacheHitAllocs \
	repro/internal/linalg.TestBandedLanesRun
# TEST_OUTPUT prints the Output text of `go test -json` events.
TEST_OUTPUT = grep '"Output":' | sed -e 's/^{.*"Output":"\(.*\)"}$$/\1/' -e 's/\\n$$//' -e 's/\\t/\t/g' \
	-e 's/\\"/"/g' -e 's/\\u003c/</g' -e 's/\\u003e/>/g' -e 's/\\u0026/\&/g' -e 's/\\\\/\\/g'

verify:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { printf 'gofmt needed:\n%s\n' "$$unformatted"; exit 1; }
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	@asm=$$(GOOS=linux GOARCH=arm64 $(GO) build -gcflags=-S ./internal/linalg 2>&1) || { printf '%s\n' "$$asm"; exit 1; }; \
	case "$$asm" in *STEXT*) ;; *) echo 'no arm64 assembly listing of internal/linalg to check'; exit 1;; esac; \
	fused=$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS][[:space:]]'); \
	test -z "$$fused" || { printf 'fused multiply-add in the arm64 build of internal/linalg (write the product as float64(a*b)):\n%s\n' "$$fused"; exit 1; }
	@asm=$$(GOAMD64=v3 $(GO) build -gcflags=-S ./internal/linalg 2>&1) || { printf '%s\n' "$$asm"; exit 1; }; \
	case "$$asm" in *STEXT*) ;; *) echo 'no GOAMD64=v3 assembly listing of internal/linalg to check'; exit 1;; esac; \
	fused=$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]VFN?M(ADD|SUB)[[:alnum:]]*[[:space:]]'); \
	test -z "$$fused" || { printf 'fused multiply-add in the GOAMD64=v3 build of internal/linalg (write the product as float64(a*b)):\n%s\n' "$$fused"; exit 1; }
	$(GO) test -fuzz '^FuzzParseDeck$$' -fuzztime 10s -run '^FuzzParseDeck$$' ./internal/deck
	$(GO) test -fuzz '^FuzzServeJSON$$' -fuzztime 10s -run '^FuzzServeJSON$$' ./internal/serve
	@out=$$($(GO) test -race -json ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ]; then printf '%s\n' "$$out" | grep -v '^{' ; printf '%s\n' "$$out" | $(TEST_OUTPUT); exit $$status; fi; \
	printf '%s\n' "$$out" | grep -v -e '"Test":' -e '"Output":"PASS\\n"' | $(TEST_OUTPUT); \
	skips=$$(printf '%s\n' "$$out" | sed -n 's/.*"Action":"skip","Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1.\2/p' | grep -vxF $(RACE_SKIPS:%=-e %)); \
	test -z "$$skips" || { printf 'tests skipped in the race pass that RACE_SKIPS does not allow:\n%s\n' "$$skips"; exit 1; }
	$(GO) test -race -count=3 -shuffle=on . ./internal/core ./internal/fem ./internal/flight ./internal/sweep ./internal/serve ./internal/plan ./internal/deck ./internal/experiments ./internal/chip ./internal/fit
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(MAKE) bench-json BENCHTIME=1x BENCHCOUNT=1 BENCH_OUT=/dev/null
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-json archives the reference-solver costs (the BenchmarkReference*
# family, including the multigrid variants and the 3-D Fig. 4 block with
# their cgiters/mglevels metrics, plus the SweepReuse sweep) and the analytic
# models' costs (the Table1Model* and TransientModel* rows) as JSON. The
# committed BENCH_ref.json is regenerated with the defaults below — plain
# `make bench-json` — so archive and compare always run the identical
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
BENCH_PATTERN ?= 'Reference|SweepReuse|Table1Model|TransientModel'
# Captured into a shell variable rather than piped directly: in a plain
# pipe a failing `go test` is masked by the parser's exit status.
bench-json:
	@out=$$($(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchtime $(BENCHTIME) -count $(BENCHCOUNT) .) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-compare guards the solvers' costs: it reruns the archived
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
# benchmark (the end-to-end sweep hot path: stencil refill, refactoring
# into the cached factor storage, pooled solves). Inspect with
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
	FuzzMaterialUnmarshalJSON:./internal/materials \
	FuzzServeJSON:./internal/serve
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
