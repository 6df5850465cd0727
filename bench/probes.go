package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

// Probes measure single layers from outside, through their public
// functions, after a traced phase: kernels and multigrid at the workload's
// problem size, and the workload-independent model and deck layers.

// bandwidth is a kernel rate over bytes computed from array sizes, not
// measured: cache misses and write-allocate traffic are not counted.
type bandwidth struct {
	gbps float64
	note string
}

type mgMetrics struct {
	solves, builds                  float64
	buildMS, levels, cyclesPerSolve float64
	fineUS, coarseUS                float64
}

type probeResult struct {
	flux                  float64
	mg                    mgMetrics
	matvec, triadWS, dram bandwidth
	core                  [4]float64 // Model A, B(100), B(500), 1-D: µs per solve
	deck                  [4]float64 // parse, lower, run, render: µs over the corpus
}

func probe(ctx context.Context, e *env, s *stack.Stack, res fem.Resolution) (*probeResult, error) {
	// One multigrid-preconditioned solve of the problem gives the multigrid
	// layer at this size and the energy balance of a converged solution.
	before := obs.Default().Snapshot()
	mgRes := res
	mgRes.Precond = sparse.PrecondMG
	sol, err := fem.SolveStackWith(ctx, nil, s, mgRes)
	if err != nil {
		return nil, fmt.Errorf("probe solve: %w", err)
	}
	pr := &probeResult{flux: sol.FluxBalanceError(), mg: mgFrom(counters{before, obs.Default().Snapshot()})}

	p, err := fem.BuildAxiProblem(s, res)
	if err != nil {
		return nil, err
	}
	if pr.matvec, pr.triadWS, err = kernels([]int{len(p.REdges) - 1, len(p.ZEdges) - 1}); err != nil {
		return nil, err
	}
	pr.dram = e.dramTriad()
	if pr.core, err = coreProbe(); err != nil {
		return nil, err
	}
	if pr.deck, err = deckProbe(ctx, e); err != nil {
		return nil, err
	}
	return pr, nil
}

// mgFrom reads the multigrid layer from registry deltas: hierarchy builds
// (mg.build.seconds), cycles per multigrid-preconditioned CG solve, and the
// per-cycle wall time split at level 1 — level 0's inclusive histogram minus
// level 1's is the fine level's own smoothing and transfers.
func mgFrom(c counters) mgMetrics {
	m := mgMetrics{solves: c.count("sparse.cg.precond.multigrid")}
	var sum float64
	m.builds, sum = c.hist("mg.build.seconds")
	m.buildMS = 1e3 * ratio(sum, m.builds)
	cycles := c.count("mg.cycles")
	_, l0 := c.hist("mg.cycle.level0.seconds")
	_, l1 := c.hist("mg.cycle.level1.seconds")
	m.levels = c.after.Gauges["mg.levels"]
	m.cyclesPerSolve = ratio(cycles, m.solves)
	m.fineUS = 1e6 * ratio(l0-l1, cycles)
	m.coarseUS = 1e6 * ratio(l1, cycles)
	return m
}

// perCall times fn over five batches of at least 5 ms each and returns
// each batch's time per call.
func perCall(fn func()) []time.Duration {
	fn()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) >= 5*time.Millisecond {
			break
		}
		reps *= 2
	}
	out := make([]time.Duration, 5)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		out[b] = time.Since(t0) / time.Duration(reps)
	}
	return out
}

// best is the fastest per-call time: a kernel's rate at its best.
func best(fn func()) time.Duration { return slices.Min(perCall(fn)) }

func gbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

// kernels times the sequential matrix-free matvec on a 5-point stencil with
// the workload's grid dims, and a triad over the same bytes.
func kernels(dims []int) (matvec, triadWS bandwidth, err error) {
	n := dims[0] * dims[1]
	diag, offR, offZ := fill(n, 4), fill(n, -1), fill(n, -1)
	st, err := sparse.NewStencilCoeffs(dims, diag, [3][]float64{offR, offZ, nil})
	if err != nil {
		return matvec, triadWS, err
	}
	pool := sparse.NewPool(1)
	defer pool.Close()
	x, y := fill(n, 1), make([]float64, n)
	// diag, two coefficient arrays and x read, y written: 5 arrays of n.
	b := 5 * 8 * n
	matvec = bandwidth{gbps(b, best(func() { pool.MulVecOp(st, x, y) })),
		fmt.Sprintf("%dx%d grid, %d B per matvec", dims[0], dims[1], b)}
	m := b / 24
	triadWS = triad(m)
	return matvec, triadWS, nil
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// triad times a[i] = b[i] + 3·c[i] over three arrays of m float64s.
func triad(m int) bandwidth {
	a, b, c := make([]float64, m), fill(m, 1), fill(m, 2)
	d := best(func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	return bandwidth{gbps(24*m, d), fmt.Sprintf("3 arrays of %.3g MB", float64(8*m)/1e6)}
}

// dramTriad runs the triad with each array four times the last-level
// cache, once per process, and returns the memory to the OS afterwards.
func (e *env) dramTriad() bandwidth {
	if e.dram == nil {
		bw := triad(int(4 * e.llcMB * (1 << 20) / 8))
		bw.note += fmt.Sprintf(", LLC %g MiB", e.llcMB)
		e.dram = &bw
		debug.FreeOSMemory()
	}
	return *e.dram
}

// coreProbe times each analytic model's Solve on the Table I stack (the
// Fig. 5 block at a 1 µm liner), in µs: the median over batches of the
// batch time per call.
func coreProbe() ([4]float64, error) {
	var out [4]float64
	s, err := stack.Fig5Block(units.UM(1))
	if err != nil {
		return out, err
	}
	models := []core.Model{core.ModelA{Coeffs: core.PaperBlockCoeffs()}, core.NewModelB(100), core.NewModelB(500), core.Model1D{}}
	for k, m := range models {
		if _, err := m.Solve(s); err != nil {
			return out, fmt.Errorf("%s: %w", m.Name(), err)
		}
		// Solve is deterministic: the first call's success holds for repeats.
		out[k] = percentile(perCall(func() { m.Solve(s) }), 50) * 1e3
	}
	return out, nil
}

// deckProbe parses, lowers, runs and renders the 9-deck corpus three times
// and returns the median per-stage time over the corpus, checking every
// render against its golden.
func deckProbe(ctx context.Context, e *env) ([4]float64, error) {
	var out [4]float64
	paths, err := filepath.Glob(filepath.Join(e.root, "testdata", "decks", "*.ttsv"))
	if err != nil {
		return out, err
	}
	sort.Strings(paths)
	srcs, goldens := make([][]byte, len(paths)), make([][]byte, len(paths))
	for i, p := range paths {
		if srcs[i], err = os.ReadFile(p); err != nil {
			return out, err
		}
		golden := filepath.Join(filepath.Dir(p), "golden", strings.TrimSuffix(filepath.Base(p), ".ttsv")+".golden")
		if goldens[i], err = os.ReadFile(golden); err != nil {
			return out, err
		}
	}
	var stages [4][]float64
	for rep := 0; rep < 3; rep++ {
		var t [4]time.Duration
		for i, p := range paths {
			t0 := time.Now()
			d, err := deck.Parse(filepath.Base(p), bytes.NewReader(srcs[i]))
			if err != nil {
				return out, err
			}
			t1 := time.Now()
			sc, err := d.Lower()
			if err != nil {
				return out, err
			}
			t2 := time.Now()
			res, err := deck.RunScenario(ctx, sc, deck.Options{Workers: e.workers})
			if err != nil {
				return out, err
			}
			t3 := time.Now()
			var b bytes.Buffer
			if err := res.WriteText(&b); err != nil {
				return out, err
			}
			t4 := time.Now()
			if !bytes.Equal(b.Bytes(), goldens[i]) {
				return out, fmt.Errorf("deck %s: report differs from its golden", filepath.Base(p))
			}
			for k, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
				t[k] += d
			}
		}
		for k := range stages {
			stages[k] = append(stages[k], float64(t[k].Nanoseconds())/1e3)
		}
	}
	for k := range out {
		out[k] = median(stages[k])
	}
	return out, nil
}
