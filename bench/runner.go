package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/stack"
)

// env is what every workload shares: the repository root, the seed and the
// host's parallelism. All load comes from this one process and uses at most
// workers solver goroutines, sweep workers or HTTP connections.
type env struct {
	root    string
	seed    int64
	workers int
	cpu     string
	llcMB   float64

	dram *bandwidth // DRAM triad, measured once per process
}

func newEnv(root string, seed int64) (*env, error) {
	if _, err := os.Stat(filepath.Join(root, "testdata", "decks")); err != nil {
		return nil, fmt.Errorf("-root %q is not the repository root: %w", root, err)
	}
	return &env{root: root, seed: seed, workers: runtime.NumCPU(), cpu: cpuModel(), llcMB: llcMB()}, nil
}

// cpuModel reads the CPU model name for the report header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcMB returns the size of the largest CPU cache in MiB, or 32 when sysfs
// does not say.
func llcMB() float64 {
	best := 0.0
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1.0 / 1024
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return 32
	}
	return best
}

// A workload generates its inputs from the seed, sets itself up and drives
// timed ops. Names are fixed: later changes cite them.
type workload struct {
	name string
	why  string
	// tail is the percentile reported as tail_ms, fixed per workload so that
	// a change in throughput does not change which percentile is compared:
	// p90 where a 12 s run has some 150 ops or more, p99 for the serve mix
	// (thousands of requests), and p75 where a run has only 20-30 ops, whose
	// p90 would be set by two or three of them.
	tail float64
	// limit is the latency an op must meet to count towards goodput.
	limit time.Duration
	// procs is the GOMAXPROCS of the timed phases; 0 keeps every CPU.
	// Set-up, output checks and probes always run with every CPU.
	procs int
	setup func(ctx context.Context, e *env) (instance, error)
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// drive runs ops until dur has passed since rec began (at least one),
	// recording each in rec.
	drive(ctx context.Context, dur time.Duration, rec *recorder)
	// problem is the workload's representative reference problem: the probes
	// measure kernels and the multigrid layer at its size.
	problem() (*stack.Stack, fem.Resolution)
	close()
}

// tracedServer is implemented by workloads whose ops run behind a server
// that needs the tracer handed over explicitly rather than through ctx.
type tracedServer interface {
	setTracer(t *obs.Tracer) error
}

// verifier is implemented by workloads with output checks too costly to run
// inside each op; verify runs after the timed phase.
type verifier interface {
	verify(ctx context.Context, rec *recorder)
}

// extraLayers is implemented by workloads that report layer metrics no other
// workload has.
type extraLayers interface {
	extras() []metric
}

func workloads() []workload {
	return []workload{
		{name: "paper", why: "the in-process `ttsvlab all` pipeline: per-solve fixed costs of hundreds of default-mesh FVM solves plus the analytic models through the sweep engine",
			tail: 75, limit: 3 * time.Second, setup: setupPaper},
		{name: "fresh", why: "cold 2x-refined reference solves, new SolveContext each: assembly and multigrid hierarchy construction dominate",
			tail: 90, limit: 500 * time.Millisecond, setup: setupFresh(2)},
		{name: "fresh4", why: "cold 4x-refined reference solves: the same path at a 4x larger working set, where build and cycle costs scale differently",
			tail: 75, limit: 2 * time.Second, setup: setupFresh(4)},
		{name: "warm", why: "re-solves of one 2x geometry through a persistent SolveContext: the hierarchy comes from cache, so CG, the MG cycle and the matvec dominate",
			tail: 90, limit: 300 * time.Millisecond, setup: setupWarm},
		{name: "sweep", why: "16-point 2x radius x liner batches on numcpu workers with warm chains and a journal: pattern refills and recycled-arena rebuilds, engine dispatch",
			tail: 75, limit: 4 * time.Second, setup: setupSweep},
		{name: "serve", why: "one client sending the ttsvd request mix back to back: HTTP, lowering, coalescing, the warm pool and rendering dominate, with no queueing",
			tail: 99, limit: serveLimit, procs: 1, setup: setupServe(func(*env) int { return 1 })},
		{name: "serve_hi", why: "numcpu clients sending the same mix back to back, saturating the server: capacity, and latency when requests contend for the CPUs",
			tail: 99, limit: serveLimit, setup: setupServe(func(e *env) int { return e.workers })},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(name string) ([]workload, error) {
	all := workloads()
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(workloadNames(), ", "))
}

// runWorkload sets w up o.setups() times, keeping the last instance, then
// measures it: for o.seconds untraced, or, with o.trace, for half that
// untraced and half traced.
func runWorkload(ctx context.Context, e *env, w workload, o options) (*result, error) {
	var setups []float64
	var inst instance
	for k := 0; k < o.setups(); k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		rec := measure(ctx, nil, inst, dur, w)
		verify(ctx, inst, rec)
		return &result{Workload: w.name, Attempted: rec.attempted, Failed: rec.failed,
			EndToEnd: endToEnd(w, rec, setups), Extra: demoted(w, rec)}, ctx.Err()
	}

	plain := measure(ctx, nil, inst, dur/2, w)
	verify(ctx, inst, plain)
	spans := &bytes.Buffer{}
	tr := obs.NewTracer(spans)
	if ts, ok := inst.(tracedServer); ok {
		if err := ts.setTracer(tr); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	before := obs.Default().Snapshot()
	traced := measure(ctx, tr, inst, dur/2, w)
	after := obs.Default().Snapshot()
	verify(ctx, inst, traced)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dir := o.spans
	if dir == "" {
		dir = filepath.Join(e.root, ".bench_build")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans-"+w.name+".ndjson"), spans.Bytes(), 0o644); err != nil {
		return nil, err
	}
	layers, extra, err := perLayer(ctx, e, inst, spans.Bytes(), before, after, plain, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &result{
		Workload:  w.name,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		EndToEnd:  endToEnd(w, plain, setups),
		Layers:    append(demoted(w, plain), layers...),
		Extra:     extra,
	}, nil
}

// measure runs one timed phase of dur, traced into tr unless it is nil, and
// returns its samples.
func measure(ctx context.Context, tr *obs.Tracer, inst instance, dur time.Duration, w workload) *recorder {
	// Set-up garbage, and an earlier workload's, must not count towards this
	// phase's peak heap or GC cycles.
	runtime.GC()
	rec := newRecorder(w.limit)
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	rec.procs = runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	sampler := rec.begin(stop)
	inst.drive(obs.ContextWithTracer(ctx, tr), dur, rec)
	rec.finish()
	close(stop)
	sampler.Wait()
	return rec
}

// verify runs the instance's deferred output checks on a finished phase,
// untraced and outside its registry deltas.
func verify(ctx context.Context, inst instance, rec *recorder) {
	if v, ok := inst.(verifier); ok {
		v.verify(ctx, rec)
	}
}

// closedLoop runs op back to back from one caller until dur has passed
// since rec began. Op i gets the workload's i-th seeded input; in a traced
// phase it runs under a bench.op span. The check op returns runs after the
// op's clock stops.
func closedLoop(ctx context.Context, dur time.Duration, rec *recorder, op func(ctx context.Context, i int) (check func() error, err error)) {
	for i := 0; ctx.Err() == nil && (i == 0 || time.Since(rec.start) < dur); i++ {
		octx, sp := obs.StartSpan(ctx, "bench.op")
		sp.Set("op", i)
		t0 := time.Now()
		check, err := op(octx, i)
		lat := time.Since(t0)
		sp.End()
		if err == nil && check != nil {
			err = check()
		}
		rec.done(lat, err)
	}
}

// endToEnd derives the end-to-end metrics of one untraced phase: the ones
// that repeat within the bounds BENCHMARK.json fixes for them.
func endToEnd(w workload, rec *recorder, setups []float64) []metric {
	return []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))},
		{Name: "alloc_mb_per_op", Value: rec.allocPerOp() / 1e6, Unit: "MB"},
		{Name: "goodput", Value: float64(rec.good) / float64(max(rec.attempted, 1)), Unit: "ratio", Note: fmt.Sprintf("limit %v", w.limit)},
	}
}

// demoted derives the latency, throughput and peak heap of one untraced
// phase. They are per-layer metrics: on a host shared with other machines
// they do not repeat within a 10% bound (README.md, "Bounds and demoted
// metrics").
func demoted(w workload, rec *recorder) []metric {
	note := fmt.Sprintf("n=%d", rec.attempted)
	return []metric{
		{Name: "p50_ms", Value: percentile(rec.lat, 50), Unit: "ms", Note: note},
		{Name: "tail_ms", Value: percentile(rec.lat, w.tail), Unit: "ms", Note: fmt.Sprintf("p%g, %s", w.tail, note)},
		{Name: "ops_per_s", Value: float64(rec.attempted) / rec.wall().Seconds(), Unit: "1/s"},
		{Name: "peak_heap_mb", Value: rec.peakHeap() / 1e6, Unit: "MB", Note: "p95 of live-heap samples"},
	}
}
