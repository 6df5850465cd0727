package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/sweep"
	"repro/internal/units"
)

// paperTables are the tables `ttsvlab all` writes that results/ archives.
// The per-sweep *_errors tables repeat headline.csv's error columns, and
// calibrate.csv comes from `ttsvlab calibrate`, not `all`.
var paperTables = []string{"fig4", "fig5", "fig6", "fig7", "table1", "casestudy", "headline"}

// paper runs the `ttsvlab all` pipeline in process at the default
// configuration on numcpu sweep workers. It has no seeded input: it is the
// paper's fixed evaluation.
type paper struct {
	want    map[string][][]string
	workers int
}

func setupPaper(ctx context.Context, e *env) (instance, error) {
	p := &paper{want: make(map[string][][]string), workers: e.workers}
	for _, id := range paperTables {
		f, err := os.Open(filepath.Join(e.root, "results", id+".csv"))
		if err != nil {
			return nil, err
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("results/%s.csv: %w", id, err)
		}
		p.want[id] = recs
	}
	tables, err := p.run(ctx)
	if err != nil {
		return nil, err
	}
	return p, p.check(tables)
}

func (p *paper) drive(ctx context.Context, dur time.Duration, rec *recorder) {
	closedLoop(ctx, dur, rec, func(ctx context.Context, _ int) (func() error, error) {
		tables, err := p.run(ctx)
		return func() error { return p.check(tables) }, err
	})
}

// run is one `ttsvlab all`: calibrate Model A, then every figure and table.
func (p *paper) run(ctx context.Context) (map[string]*report.Table, error) {
	cfg := experiments.Default()
	cfg.Workers = p.workers
	tables := make(map[string]*report.Table)
	// Each public call runs under a bench.experiments.<name> span.
	call := func(name string, fn func(experiments.Config) (*report.Table, error)) error {
		c := cfg
		var sp *obs.Span
		c.Ctx, sp = obs.StartSpan(ctx, "bench.experiments."+name)
		t, err := fn(c)
		sp.End()
		if err != nil {
			return fmt.Errorf("experiments %s: %w", name, err)
		}
		tables[name] = t
		return nil
	}
	if err := call("calibrate", func(c experiments.Config) (*report.Table, error) {
		cal, err := experiments.Calibrate(c)
		if err == nil {
			cfg.CalibratedA = &cal.Coeffs
		}
		return nil, err
	}); err != nil {
		return nil, err
	}
	figure := func(fn func(experiments.Config) (*experiments.Sweep, error)) func(experiments.Config) (*report.Table, error) {
		return func(c experiments.Config) (*report.Table, error) {
			sw, err := fn(c)
			if err != nil {
				return nil, err
			}
			return sw.Table(), nil
		}
	}
	steps := []struct {
		id string
		fn func(experiments.Config) (*report.Table, error)
	}{
		{"fig4", figure(experiments.Fig4)},
		{"fig5", figure(experiments.Fig5)},
		{"fig6", figure(experiments.Fig6)},
		{"fig7", figure(experiments.Fig7)},
		{"table1", func(c experiments.Config) (*report.Table, error) {
			r, err := experiments.Table1(c)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"casestudy", func(c experiments.Config) (*report.Table, error) {
			r, err := experiments.CaseStudy(c)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"headline", func(c experiments.Config) (*report.Table, error) {
			r, err := experiments.Headline(c)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}
	for _, s := range steps {
		if err := call(s.id, s.fn); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// check compares every table with its results/ CSV on every column except
// the wall-clock runtime columns, the only cells that differ between runs.
func (p *paper) check(tables map[string]*report.Table) error {
	for _, id := range paperTables {
		t, want := tables[id], p.want[id]
		if len(want) == 0 || strings.Join(t.Columns, ",") != strings.Join(want[0], ",") {
			return fmt.Errorf("%s: columns %q, results/%s.csv has %q", id, t.Columns, id, want[0])
		}
		if len(t.Rows) != len(want)-1 {
			return fmt.Errorf("%s: %d rows, results/%s.csv has %d", id, len(t.Rows), id, len(want)-1)
		}
		for i, row := range t.Rows {
			for j, col := range t.Columns {
				if strings.Contains(col, "runtime") {
					continue
				}
				got := ""
				if j < len(row) {
					got = row[j]
				}
				if got != want[i+1][j] {
					return fmt.Errorf("%s row %d column %q: %q, results/%s.csv has %q", id, i+1, col, got, id, want[i+1][j])
				}
			}
		}
	}
	return nil
}

func (p *paper) problem() (*stack.Stack, fem.Resolution) {
	s, _ := stack.Fig4Block(units.UM(10))
	return s, fem.DefaultResolution()
}

func (p *paper) close() {}

// checkSolution returns the solve's maximum temperature rise after checking
// that it conserves energy.
func checkSolution(sol *fem.AxiSolution) (float64, error) {
	if e := sol.FluxBalanceError(); !(e < 1e-6) {
		return 0, fmt.Errorf("flux balance error %.3g, want < 1e-6", e)
	}
	dt, _, _ := sol.MaxT()
	return dt, nil
}

// sameDT checks a re-solve against the first solve of the same geometry.
func sameDT(got, want float64) error {
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		return fmt.Errorf("max dT %.17g differs from %.17g by more than 1e-8 relative", got, want)
	}
	return nil
}

// fresh solves Fig. 4 blocks cold, each through a new SolveContext, on the
// sequential solver. Op i solves the i-th seeded via radius in [2, 20] µm.
type fresh struct {
	res    fem.Resolution
	stacks []*stack.Stack
	dts    []float64 // per op of the current phase; NaN where the op failed
}

// freshInputs is the length of the seeded radius sequence; ops cycle it.
const freshInputs = 512

// freshCrossChecks is how many ops per phase verify re-solves warm.
const freshCrossChecks = 2

func setupFresh(refine int) func(context.Context, *env) (instance, error) {
	return func(ctx context.Context, e *env) (instance, error) {
		rng := rand.New(rand.NewSource(e.seed))
		f := &fresh{res: fem.DefaultResolution().Refine(refine)}
		for i := 0; i < freshInputs; i++ {
			s, err := stack.Fig4Block(units.UM(2 + 18*rng.Float64()))
			if err != nil {
				return nil, err
			}
			f.stacks = append(f.stacks, s)
		}
		sol, err := f.solve(ctx, 0)
		if err == nil {
			_, err = checkSolution(sol)
		}
		return f, err
	}
}

// solve is one cold solve of op i's geometry through a new SolveContext.
func (f *fresh) solve(ctx context.Context, i int) (*fem.AxiSolution, error) {
	sc := fem.NewSolveContext()
	defer sc.Close()
	return fem.SolveStackWith(ctx, sc, f.stacks[i%len(f.stacks)], f.res)
}

func (f *fresh) drive(ctx context.Context, dur time.Duration, rec *recorder) {
	f.dts = f.dts[:0]
	closedLoop(ctx, dur, rec, func(ctx context.Context, i int) (func() error, error) {
		f.dts = append(f.dts, math.NaN())
		sol, err := f.solve(ctx, i)
		return func() error {
			dt, err := checkSolution(sol)
			if err == nil {
				f.dts[i] = dt
			}
			return err
		}, err
	})
}

// verify re-solves the first ops' geometries twice through one persistent
// SolveContext — the second solve serves the cached hierarchy — and checks
// the warm result against the fresh one.
func (f *fresh) verify(ctx context.Context, rec *recorder) {
	sc := fem.NewSolveContext()
	defer sc.Close()
	for i := 0; i < min(freshCrossChecks, len(f.dts)); i++ {
		if math.IsNaN(f.dts[i]) {
			continue
		}
		var dt float64
		var err error
		for k := 0; k < 2 && err == nil; k++ {
			var sol *fem.AxiSolution
			if sol, err = fem.SolveStackWith(ctx, sc, f.stacks[i], f.res); err == nil {
				dt, err = checkSolution(sol)
			}
		}
		if err == nil {
			err = sameDT(dt, f.dts[i])
		}
		if err != nil {
			rec.failOp(i, err)
		}
	}
}

func (f *fresh) problem() (*stack.Stack, fem.Resolution) { return f.stacks[0], f.res }
func (f *fresh) close()                                  {}

// warm re-solves seeded 2× Fig. 4 geometries, each through its own
// persistent SolveContext: the operator never changes, so the hierarchy is
// served from cache and each op is assembly refill, CG, the MG cycle and
// matvecs. Ops take the geometries in turn, warmRun re-solves at a time, so
// one geometry's data stays cache-resident as it would for a user repeating
// a solve. The radii are drawn one per stratum of [2, 20] µm, so every seed
// covers the range alike: CG iteration counts, and so solve times, vary with
// the radius.
type warm struct {
	res   fem.Resolution
	geoms []warmGeometry
}

type warmGeometry struct {
	s    *stack.Stack
	sc   *fem.SolveContext
	want float64 // the fresh solve's max dT
}

const (
	warmGeometries = 4
	warmRun        = 25
)

func setupWarm(ctx context.Context, e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	w := &warm{res: fem.DefaultResolution().Refine(2)}
	for k := 0; k < warmGeometries; k++ {
		s, err := stack.Fig4Block(units.UM(2 + 18*(float64(k)+rng.Float64())/warmGeometries))
		if err == nil {
			w.geoms = append(w.geoms, warmGeometry{s: s, sc: fem.NewSolveContext()})
			err = w.prepare(ctx, k)
		}
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// prepare solves geometry k fresh for its reference result, then twice
// through its context: the first solve builds the hierarchy, the second is
// the first warm one.
func (w *warm) prepare(ctx context.Context, k int) error {
	sol, err := fem.SolveStackWith(ctx, nil, w.geoms[k].s, w.res)
	if err != nil {
		return err
	}
	if w.geoms[k].want, err = checkSolution(sol); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		check, err := w.solve(ctx, k)
		if err == nil {
			err = check()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// solve re-solves geometry k; the returned check compares the result with
// the fresh solve.
func (w *warm) solve(ctx context.Context, k int) (func() error, error) {
	g := w.geoms[k]
	sol, err := fem.SolveStackWith(ctx, g.sc, g.s, w.res)
	return func() error {
		dt, err := checkSolution(sol)
		if err != nil {
			return err
		}
		return sameDT(dt, g.want)
	}, err
}

func (w *warm) drive(ctx context.Context, dur time.Duration, rec *recorder) {
	closedLoop(ctx, dur, rec, func(ctx context.Context, i int) (func() error, error) {
		return w.solve(ctx, i/warmRun%len(w.geoms))
	})
}

func (w *warm) problem() (*stack.Stack, fem.Resolution) { return w.geoms[0].s, w.res }

func (w *warm) close() {
	for _, g := range w.geoms {
		g.sc.Close()
	}
}

// sweepW runs one 16-point batch per op: a 2×-refined reference sweep over
// 8 radii × 2 liner thicknesses (one warm chain per liner), on numcpu
// workers with reuse and warm starts on, journaled to a temporary NDJSON
// file. Op i runs grid i mod sweepGrids; each grid's radius and liner
// offsets are drawn from the seed.
//
// How much a batch allocates depends on its geometry, and not smoothly: it
// jumps by up to 15% between grids 0.01 µm apart, with the sizes of the
// multigrid aggregates the recycled arenas must hold. Over offsets of
// 2 × 0.5 µm a batch's allocation varied by 10.5% (one standard deviation
// over 640 grids), over the 0.05 × 0.025 µm box used here by 6%; and a
// run's ops take distinct grids, as many as it has ops. Both keep the seed
// from moving alloc_mb_per_op by more than a regression should.
//
// Op 0 repeats the set-up's batch and must reproduce it bit for bit (warm
// chains make results independent of the worker count), and every batch's
// journal must replay it.
type sweepW struct {
	grids   []sweep.Batch
	want    [][]float64 // per grid, from its first batch
	workers int
	dir     string

	journalBytes, points int64
}

// sweepGrids is more than a run's ops (about 25 batches in 12 s).
const sweepGrids = 64

func setupSweep(ctx context.Context, e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	model := fem.ReferenceModel{Res: fem.DefaultResolution().Refine(2)}
	s := &sweepW{workers: e.workers, want: make([][]float64, sweepGrids)}
	for g := 0; g < sweepGrids; g++ {
		r0 := 6 + 0.05*rng.Float64()
		tl0 := 0.5 + 0.025*rng.Float64()
		var jobs sweep.Batch
		for _, tl := range []float64{tl0, tl0 + 1} {
			for k := 0; k < 8; k++ {
				cfg := stack.DefaultBlock()
				cfg.R, cfg.TL = units.UM(r0+1.5*float64(k)), units.UM(tl)
				st, err := cfg.Build()
				if err != nil {
					return nil, err
				}
				jobs = jobs.Add(fmt.Sprintf("r=%.4gum/tl=%.4gum", r0+1.5*float64(k), tl), st, model)
			}
		}
		s.grids = append(s.grids, jobs)
	}
	var err error
	if s.dir, err = os.MkdirTemp("", "ttsvbench-sweep-"); err != nil {
		return nil, err
	}
	outs, err := s.batch(ctx, 0)
	if err == nil {
		err = s.check(0, outs)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepW) journalPath() string { return filepath.Join(s.dir, "journal.ndjson") }

// batch runs grid g once, journaling to a fresh file.
func (s *sweepW) batch(ctx context.Context, g int) ([]sweep.Outcome, error) {
	f, err := os.Create(s.journalPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := sweep.NewJournal(f, s.grids[g], sweep.ShardSpec{})
	if err != nil {
		return nil, err
	}
	outs, err := sweep.Run(ctx, s.grids[g], sweep.Options{Workers: s.workers, WarmStart: true, Journal: j})
	if err != nil {
		return nil, err
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	return outs, f.Close()
}

// check verifies a batch of grid g against the grid's first batch and its
// journal replay; the first batch of a grid becomes its reference.
func (s *sweepW) check(g int, outs []sweep.Outcome) error {
	dts := make([]float64, len(outs))
	for i, oc := range outs {
		if oc.Err != nil {
			return oc.Err
		}
		dts[i] = oc.Result.MaxDT
		if s.want[g] != nil && dts[i] != s.want[g][i] {
			return fmt.Errorf("grid %d point %d (%s): max dT %.17g, its first batch gave %.17g", g, i, oc.Job.Label, dts[i], s.want[g][i])
		}
	}
	f, err := os.Open(s.journalPath())
	if err != nil {
		return err
	}
	defer f.Close()
	replay, _, err := sweep.ReadJournal(f, s.grids[g])
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for i, oc := range outs {
		if r, ok := replay[i]; !ok || r.Result == nil || r.Result.MaxDT != oc.Result.MaxDT {
			return fmt.Errorf("journal does not replay point %d", i)
		}
	}
	if s.want[g] == nil {
		s.want[g] = dts
	}
	if fi, err := f.Stat(); err == nil {
		s.journalBytes += fi.Size()
		s.points += int64(len(outs))
	}
	return nil
}

func (s *sweepW) drive(ctx context.Context, dur time.Duration, rec *recorder) {
	closedLoop(ctx, dur, rec, func(ctx context.Context, i int) (func() error, error) {
		g := i % len(s.grids)
		outs, err := s.batch(ctx, g)
		return func() error { return s.check(g, outs) }, err
	})
}

func (s *sweepW) extras() []metric {
	return []metric{{Name: "sweep.journal_bytes_per_pt", Value: float64(s.journalBytes) / float64(max(s.points, 1)), Unit: "B"}}
}

func (s *sweepW) problem() (*stack.Stack, fem.Resolution) {
	return s.grids[0][0].Stack, fem.DefaultResolution().Refine(2)
}

func (s *sweepW) close() { os.RemoveAll(s.dir) }
