// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): the TTSV radius sweep (Fig. 4), the liner thickness
// sweep (Fig. 5), the accuracy/runtime trade-off of Model B's segmentation
// (Table I), the substrate thickness sweep (Fig. 6), the via cluster sweep
// (Fig. 7) and the 3-D DRAM-µP case study (§IV-E). Each experiment runs the
// analytical models against the finite-volume reference solver and reports
// the same rows/series as the paper.
//
// Every sweep is one model-by-point table (Sweep): each Point holds one
// value per model, in Sweep.Models order with the reference last. A figure
// is a description — id, title, x label, the paper's x values and their
// Quick thinning, a stack builder and a model lineup — and one runner
// evaluates Figs. 4–7 and PlaneScaling from theirs. Table I is read off
// Fig. 5's sweep and the headline off those of Figs. 4–7, so a run that
// has drawn the figures computes neither again; Calibrate and CaseStudy
// evaluate the reference alone.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/sweep"
	"repro/internal/units"
)

// RefName is the reference column's model name in sweeps.
const RefName = "FVM"

// Config controls experiment fidelity. The experiments run the paper's
// models: Model A with core.PaperBlockCoeffs (core.PaperSystemCoeffs in the
// case study) and Model B with 100 segments per plane ("Model B (100)" in
// the figures).
//
// A Config made by Default or Quick carries two memos for the run, which
// its copies share. One is a sweep.Cache of FVM reference results, keyed by
// the canonical form of the reference model (with its Resolution) and the
// stack, so Calibrate, the figures and the case study solve each reference
// geometry once; a cache hit reports the original solve's Runtime. The
// other holds whole figure sweeps, keyed by the figure and the Config's
// Quick, Resolution and CalibratedA, so Table1 and Headline read the
// sweeps the figures already drew, runtimes included. A Config literal has
// neither and solves every point.
type Config struct {
	// Ctx optionally bounds every experiment run: a cancelled context stops
	// in-flight sweeps between solver iterations and the run returns the
	// context error. Nil means context.Background(). When it carries a
	// tracer (obs.ContextWithTracer), every experiment records one
	// "experiments.<id>" root span per sweep with the batch engine's
	// sweep.run / sweep.job spans and the reference solver's fem/sparse
	// spans below it.
	Ctx context.Context
	// Resolution is the reference solver mesh density.
	Resolution fem.Resolution
	// CalibratedA optionally adds a second Model A column, "A(cal)", run
	// with these coefficients — typically the output of Calibrate, i.e.
	// Model A fitted to this repository's own reference the way the paper's
	// A was fitted to COMSOL.
	CalibratedA *core.Coeffs
	// Quick thins the sweeps for fast runs (tests); the full grids match
	// the paper's.
	Quick bool
	// Workers is the concurrency of the batch evaluation engine; values
	// < 1 select GOMAXPROCS. Results are identical for any worker count.
	Workers int

	cache   *sweep.Cache
	figures *figureMemo
}

// Default returns the paper-faithful configuration with a fresh reference
// cache and figure memo.
func Default() Config {
	return Config{
		Resolution: fem.DefaultResolution(),
		cache:      sweep.NewCache(),
		figures:    &figureMemo{sweeps: make(map[string]memoSweep)},
	}
}

// Quick returns a thinned configuration for fast smoke runs: fewer sweep
// points, the same reference mesh.
func Quick() Config {
	c := Default()
	c.Quick = true
	return c
}

// Point is one sweep sample: the sweep variable plus each model's result,
// indexed like the sweep's Models.
type Point struct {
	// X is the sweep variable in display units (µm for lengths, count for
	// cluster size).
	X float64
	// DT is each model's maximum temperature rise (K).
	DT []float64
	// Runtime is each model's solve wall time.
	Runtime []time.Duration
}

// Sweep is one figure-shaped experiment result: a model-by-point table. A
// sweep from a Default or Quick Config is shared by every later call for
// the same figure on it, so callers must not modify it.
type Sweep struct {
	// ID is the experiment identifier ("fig4", ...).
	ID string
	// Title describes the sweep.
	Title string
	// XLabel names the sweep variable.
	XLabel string
	// Models lists the model names in display order, the reference
	// (RefName) last; every Point's values follow this order.
	Models []string
	// Points are the sweep samples in X order.
	Points []Point
}

// ErrStat summarizes one model's deviation from the reference over a sweep.
type ErrStat struct {
	// Max and Avg are the maximum and mean |relative error| vs the
	// reference.
	Max, Avg float64
	// AvgRuntime is the mean solve time.
	AvgRuntime time.Duration
}

// namedModel is a solver with its column name.
type namedModel struct {
	name  string
	model core.Model
}

// figure describes one sweep of the evaluation: the paper's sample values
// and their Quick thinning, how a value becomes a stack, and the analytical
// lineup run against the reference at every value.
type figure struct {
	id, title, xLabel string
	xs, quickXs       []float64
	block             func(x float64) (*stack.Stack, error)
	lineup            func(Config) []namedModel
}

// Fig4 sweeps the TTSV radius from 1 µm to 20 µm (paper Fig. 4): ΔT falls
// with the radius; the substrate thickness switches at r = 5 µm to respect
// the aspect-ratio limit.
func Fig4(cfg Config) (*Sweep, error) { return fig4.run(cfg) }

// Fig5 sweeps the liner thickness from 0.5 µm to 3 µm (paper Fig. 5),
// running Model B at every segmentation of Table I alongside Model A and
// the 1-D model.
func Fig5(cfg Config) (*Sweep, error) { return fig5.run(cfg) }

// Fig6 sweeps the upper-plane substrate thickness from 5 µm to 80 µm (paper
// Fig. 6), the sweep exposing the non-monotonic ΔT the 1-D model misses.
func Fig6(cfg Config) (*Sweep, error) { return fig6.run(cfg) }

// Fig7 sweeps the number of equal-total-metal-area TTSVs the original via is
// divided into (paper Fig. 7, §IV-D): n = 1, 2, 4, 9, 16.
func Fig7(cfg Config) (*Sweep, error) { return fig7.run(cfg) }

var (
	fig4 = figure{
		id: "fig4", title: "Fig. 4: max ΔT vs TTSV radius", xLabel: "r [µm]",
		xs:      []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20},
		quickXs: []float64{1, 5, 10, 20},
		block:   microns(stack.Fig4Block), lineup: standardModels,
	}
	fig5 = figure{
		id: "fig5", title: "Fig. 5: max ΔT vs liner thickness", xLabel: "t_L [µm]",
		xs:      []float64{0.5, 1, 1.5, 2, 2.5, 3},
		quickXs: []float64{0.5, 1.5, 3},
		block:   microns(stack.Fig5Block), lineup: segmentModels,
	}
	fig6 = figure{
		id: "fig6", title: "Fig. 6: max ΔT vs substrate thickness", xLabel: "t_Si2,3 [µm]",
		xs:      []float64{5, 10, 15, 20, 30, 40, 50, 60, 70, 80},
		quickXs: []float64{5, 20, 80},
		block:   microns(stack.Fig6Block), lineup: standardModels,
	}
	fig7 = figure{
		id: "fig7", title: "Fig. 7: max ΔT vs number of TTSVs", xLabel: "n",
		xs:      []float64{1, 2, 4, 9, 16},
		quickXs: []float64{1, 4, 16},
		block:   func(n float64) (*stack.Stack, error) { return stack.Fig7Block(int(n)) },
		lineup:  standardModels,
	}
)

// microns adapts a block builder taking metres to sweep values in µm.
func microns(block func(float64) (*stack.Stack, error)) func(float64) (*stack.Stack, error) {
	return func(um float64) (*stack.Stack, error) { return block(units.UM(um)) }
}

// standardModels returns the figure lineup: Model A (fitted), Model B, 1-D,
// plus the re-calibrated Model A when configured.
func standardModels(cfg Config) []namedModel {
	ms := []namedModel{
		{"A", core.ModelA{Coeffs: core.PaperBlockCoeffs()}},
	}
	if cfg.CalibratedA != nil {
		ms = append(ms, namedModel{"A(cal)", core.ModelA{Coeffs: *cfg.CalibratedA}})
	}
	b := core.NewModelB(100)
	return append(ms,
		namedModel{b.Name(), b},
		namedModel{"1D", core.Model1D{}},
	)
}

// segmentModels returns the Fig. 5 and Table I lineup: Model A, Model B at
// each of Table I's segmentations — (1, 1), (2, 20), (10, 100), (50, 500);
// Quick drops the last — and the 1-D model.
func segmentModels(cfg Config) []namedModel {
	segments := []int{1, 20, 100, 500}
	if cfg.Quick {
		segments = segments[:3]
	}
	ms := []namedModel{{"A", core.ModelA{Coeffs: core.PaperBlockCoeffs()}}}
	for _, n := range segments {
		m := core.NewModelB(n)
		ms = append(ms, namedModel{m.Name(), m})
	}
	return append(ms, namedModel{"1D", core.Model1D{}})
}

// run returns the figure's sweep from cfg's memo, evaluating it first when
// the memo lacks it.
func (f figure) run(cfg Config) (*Sweep, error) {
	if cfg.figures == nil {
		return f.evaluate(cfg)
	}
	return cfg.figures.sweep(cfg, f)
}

// figureMemo holds a run's figure sweeps: at most one per figure id, under
// the key of the Config that drew it, which a sweep under a new key
// replaces. Only a sweep that succeeded is kept.
type figureMemo struct {
	mu     sync.Mutex
	sweeps map[string]memoSweep
}

// memoSweep is one evaluated sweep with its key.
type memoSweep struct {
	key [32]byte
	sw  *Sweep
}

// sweep returns f's sweep under cfg from the memo, or evaluates it and
// keeps it if it succeeded. Copies of a Config that ask for one sweep at
// the same time may each evaluate it; their reference solves still run
// once each through the shared sweep.Cache.
func (m *figureMemo) sweep(cfg Config, f figure) (*Sweep, error) {
	key := canon.Sum(f.id, cfg.Quick, cfg.Resolution, cfg.CalibratedA)
	m.mu.Lock()
	r, ok := m.sweeps[f.id]
	m.mu.Unlock()
	if ok && r.key == key {
		return r.sw, nil
	}
	sw, err := f.evaluate(cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.sweeps[f.id] = memoSweep{key: key, sw: sw}
	m.mu.Unlock()
	return sw, nil
}

// evaluate builds the figure's stacks and evaluates its lineup and the
// reference at each.
func (f figure) evaluate(cfg Config) (*Sweep, error) {
	xs := f.xs
	if cfg.Quick {
		xs = f.quickXs
	}
	stacks := make([]*stack.Stack, len(xs))
	for i, x := range xs {
		s, err := f.block(x)
		if err != nil {
			return nil, err
		}
		stacks[i] = s
	}
	sw, err := evaluate(cfg, f.id, xs, stacks, f.lineup(cfg))
	if err != nil {
		return nil, err
	}
	sw.Title, sw.XLabel = f.title, f.xLabel
	return sw, nil
}

// evaluate solves the lineup ms and then the FVM reference at every stack
// through the batch engine, under an "experiments.<id>" span, and returns
// the model-by-point table. The reference solves run as one batch through
// cfg's cache, so a geometry an earlier run on cfg solved is not solved
// again; the analytical ones run as a second batch without it.
func evaluate(cfg Config, id string, xs []float64, stacks []*stack.Stack, ms []namedModel) (*Sweep, error) {
	ms = append(ms[:len(ms):len(ms)], namedModel{RefName, fem.ReferenceModel{Res: cfg.Resolution}})
	n := len(ms)
	sw := &Sweep{ID: id, Models: make([]string, n), Points: make([]Point, len(stacks))}
	for m, nm := range ms {
		sw.Models[m] = nm.name
	}
	dts := make([]float64, len(stacks)*n)
	runtimes := make([]time.Duration, len(stacks)*n)
	for i := range sw.Points {
		lo, hi := i*n, (i+1)*n
		sw.Points[i] = Point{X: xs[i], DT: dts[lo:hi:hi], Runtime: runtimes[lo:hi:hi]}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "experiments."+id)
	defer sp.End()
	obs.Default().Counter("experiments.runs").Inc()
	// run solves models [lo, hi) of the lineup at every stack as one batch.
	run := func(lo, hi int, cache *sweep.Cache) error {
		width := hi - lo
		jobs := make(sweep.Batch, 0, len(stacks)*width)
		for _, s := range stacks {
			for _, nm := range ms[lo:hi] {
				jobs = jobs.Add(nm.name, s, nm.model)
			}
		}
		outs, err := sweep.Run(ctx, jobs, sweep.Options{Workers: cfg.Workers, Cache: cache})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
		for i, oc := range outs {
			p := &sw.Points[i/width]
			if oc.Err != nil {
				return fmt.Errorf("experiments: %s at x=%g: %w", oc.Job.Label, p.X, oc.Err)
			}
			m := lo + i%width
			p.DT[m], p.Runtime[m] = oc.Result.MaxDT, oc.Runtime
		}
		return nil
	}
	if err := run(n-1, n, cfg.cache); err != nil {
		return nil, err
	}
	if err := run(0, n-1, nil); err != nil {
		return nil, err
	}
	return sw, nil
}

// ErrorStats computes each model's max/avg relative error against the
// sweep's reference column, plus mean runtimes.
func (sw *Sweep) ErrorStats() map[string]ErrStat {
	out := make(map[string]ErrStat, len(sw.Models))
	ref := len(sw.Models) - 1
	for m, name := range sw.Models {
		var stat ErrStat
		var totalRT time.Duration
		for _, p := range sw.Points {
			totalRT += p.Runtime[m]
			e := units.RelErr(p.DT[m], p.DT[ref])
			stat.Avg += e
			stat.Max = max(stat.Max, e)
		}
		if n := len(sw.Points); n > 0 {
			stat.Avg /= float64(n)
			stat.AvgRuntime = totalRT / time.Duration(n)
		}
		out[name] = stat
	}
	return out
}

// Table renders the sweep as a table with one column per model.
func (sw *Sweep) Table() *report.Table {
	t := report.NewTable(sw.Title, append([]string{sw.XLabel}, sw.Models...)...)
	for _, p := range sw.Points {
		row := make([]string, 0, 1+len(p.DT))
		row = append(row, trimFloat(p.X))
		for _, dt := range p.DT {
			row = append(row, fmt.Sprintf("%.2f", dt))
		}
		t.AddRow(row...)
	}
	return t
}

// Plot renders the sweep as an ASCII figure.
func (sw *Sweep) Plot() *report.Plot {
	pl := &report.Plot{Title: sw.Title, XLabel: sw.XLabel, YLabel: "max ΔT [°C]"}
	for m, name := range sw.Models {
		s := report.Series{Name: name}
		for _, p := range sw.Points {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.DT[m])
		}
		pl.Series = append(pl.Series, s)
	}
	return pl
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.2g", x)
}
