// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): the TTSV radius sweep (Fig. 4), the liner thickness
// sweep (Fig. 5), the accuracy/runtime trade-off of Model B's segmentation
// (Table I), the substrate thickness sweep (Fig. 6), the via cluster sweep
// (Fig. 7) and the 3-D DRAM-µP case study (§IV-E). Each experiment runs the
// analytical models against the finite-volume reference solver and reports
// the same rows/series as the paper.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

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
// A Config made by Default or Quick carries a sweep.Cache of the run's FVM
// reference results, keyed by the canonical form of the reference model
// (with its Resolution) and the stack. Copies of one Config share it, so
// Calibrate, the figures, Table1 and Headline run on copies of one Config
// solve each reference geometry once; a cache hit reports the original
// solve's Runtime. Only the reference is cached: a key (canon.Sum of the
// model and the stack) costs about as much as ten Model A solves, and the
// analytical models' runtimes are results of the paper. A Config literal
// has no cache and solves every point.
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

	cache *sweep.Cache
}

// Default returns the paper-faithful configuration with a fresh reference
// cache.
func Default() Config {
	return Config{
		Resolution: fem.DefaultResolution(),
		cache:      sweep.NewCache(),
	}
}

// Quick returns a thinned configuration for fast smoke runs: fewer sweep
// points, the same reference mesh.
func Quick() Config {
	c := Default()
	c.Quick = true
	return c
}

// Point is one sweep sample: the sweep variable plus each model's result.
type Point struct {
	// X is the sweep variable in display units (µm for lengths, count for
	// cluster size).
	X float64
	// DT maps model name to maximum temperature rise (K).
	DT map[string]float64
	// Runtime maps model name to its solve wall time.
	Runtime map[string]time.Duration
}

// Sweep is one figure-shaped experiment result.
type Sweep struct {
	// ID is the experiment identifier ("fig4", ...).
	ID string
	// Title describes the sweep.
	Title string
	// XLabel names the sweep variable.
	XLabel string
	// Models lists the model names in display order (reference last).
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

// models bundles a named solver.
type namedModel struct {
	name  string
	model core.Model
}

// withReference appends the FVM reference solver to a model lineup.
func withReference(ms []namedModel, res fem.Resolution) []namedModel {
	return append(ms, namedModel{RefName, fem.ReferenceModel{Res: res}})
}

// runSweepPoints evaluates every (point, model) pair of a sweep through the
// batch engine and assembles the per-point rows. The reference pairs run as
// one batch through cfg's cache, so a geometry an earlier run on cfg solved
// is not solved again; the analytical pairs run as a second batch without
// it.
func runSweepPoints(cfg Config, sw *Sweep, xs []float64, stacks []*stack.Stack, ms []namedModel) error {
	var refs, analytic []namedModel
	for _, nm := range ms {
		if _, ok := nm.model.(fem.ReferenceModel); ok {
			refs = append(refs, nm)
		} else {
			analytic = append(analytic, nm)
		}
	}
	points := make([]Point, len(stacks))
	for pi := range points {
		points[pi] = Point{
			X:       xs[pi],
			DT:      make(map[string]float64),
			Runtime: make(map[string]time.Duration),
		}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "experiments."+sw.ID)
	defer sp.End()
	obs.Default().Counter("experiments.runs").Inc()
	run := func(models []namedModel, cache *sweep.Cache) error {
		jobs := make(sweep.Batch, 0, len(stacks)*len(models))
		for _, s := range stacks {
			for _, nm := range models {
				jobs = jobs.Add(nm.name, s, nm.model)
			}
		}
		outs, err := sweep.Run(ctx, jobs, sweep.Options{Workers: cfg.Workers, Cache: cache})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", sw.ID, err)
		}
		for i, oc := range outs {
			p := &points[i/len(models)]
			if oc.Err != nil {
				return fmt.Errorf("experiments: %s at x=%g: %w", oc.Job.Label, p.X, oc.Err)
			}
			p.DT[oc.Job.Label] = oc.Result.MaxDT
			p.Runtime[oc.Job.Label] = oc.Runtime
		}
		return nil
	}
	if err := run(refs, cfg.cache); err != nil {
		return err
	}
	if err := run(analytic, nil); err != nil {
		return err
	}
	sw.Points = append(sw.Points, points...)
	return nil
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

func modelNames(ms []namedModel) []string {
	names := make([]string, 0, len(ms)+1)
	for _, m := range ms {
		names = append(names, m.name)
	}
	return append(names, RefName)
}

// Fig4 sweeps the TTSV radius from 1 µm to 20 µm (paper Fig. 4): ΔT falls
// with the radius; the substrate thickness switches at r = 5 µm to respect
// the aspect-ratio limit.
func Fig4(cfg Config) (*Sweep, error) {
	radii := []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20}
	if cfg.Quick {
		radii = []float64{1, 5, 10, 20}
	}
	ms := standardModels(cfg)
	sw := &Sweep{ID: "fig4", Title: "Fig. 4: max ΔT vs TTSV radius", XLabel: "r [µm]", Models: modelNames(ms)}
	stacks := make([]*stack.Stack, 0, len(radii))
	for _, r := range radii {
		s, err := stack.Fig4Block(units.UM(r))
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s)
	}
	if err := runSweepPoints(cfg, sw, radii, stacks, withReference(ms, cfg.Resolution)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Fig5 sweeps the liner thickness from 0.5 µm to 3 µm (paper Fig. 5),
// running Model B at every segmentation of Table I alongside Model A and
// the 1-D model.
func Fig5(cfg Config) (*Sweep, error) {
	liners := []float64{0.5, 1, 1.5, 2, 2.5, 3}
	segments := []int{1, 20, 100, 500}
	if cfg.Quick {
		liners = []float64{0.5, 1.5, 3}
		segments = []int{1, 20, 100}
	}
	ms := []namedModel{{"A", core.ModelA{Coeffs: core.PaperBlockCoeffs()}}}
	for _, n := range segments {
		m := core.NewModelB(n)
		ms = append(ms, namedModel{m.Name(), m})
	}
	ms = append(ms, namedModel{"1D", core.Model1D{}})
	sw := &Sweep{ID: "fig5", Title: "Fig. 5: max ΔT vs liner thickness", XLabel: "t_L [µm]", Models: modelNames(ms)}
	stacks := make([]*stack.Stack, 0, len(liners))
	for _, tl := range liners {
		s, err := stack.Fig5Block(units.UM(tl))
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s)
	}
	if err := runSweepPoints(cfg, sw, liners, stacks, withReference(ms, cfg.Resolution)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Fig6 sweeps the upper-plane substrate thickness from 5 µm to 80 µm (paper
// Fig. 6), the sweep exposing the non-monotonic ΔT the 1-D model misses.
func Fig6(cfg Config) (*Sweep, error) {
	thicknesses := []float64{5, 10, 15, 20, 30, 40, 50, 60, 70, 80}
	if cfg.Quick {
		thicknesses = []float64{5, 20, 80}
	}
	ms := standardModels(cfg)
	sw := &Sweep{ID: "fig6", Title: "Fig. 6: max ΔT vs substrate thickness", XLabel: "t_Si2,3 [µm]", Models: modelNames(ms)}
	stacks := make([]*stack.Stack, 0, len(thicknesses))
	for _, tsi := range thicknesses {
		s, err := stack.Fig6Block(units.UM(tsi))
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s)
	}
	if err := runSweepPoints(cfg, sw, thicknesses, stacks, withReference(ms, cfg.Resolution)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Fig7 sweeps the number of equal-total-metal-area TTSVs the original via is
// divided into (paper Fig. 7, §IV-D): n = 1, 2, 4, 9, 16.
func Fig7(cfg Config) (*Sweep, error) {
	counts := []int{1, 2, 4, 9, 16}
	if cfg.Quick {
		counts = []int{1, 4, 16}
	}
	ms := standardModels(cfg)
	sw := &Sweep{ID: "fig7", Title: "Fig. 7: max ΔT vs number of TTSVs", XLabel: "n", Models: modelNames(ms)}
	xs := make([]float64, 0, len(counts))
	stacks := make([]*stack.Stack, 0, len(counts))
	for _, n := range counts {
		s, err := stack.Fig7Block(n)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		stacks = append(stacks, s)
	}
	if err := runSweepPoints(cfg, sw, xs, stacks, withReference(ms, cfg.Resolution)); err != nil {
		return nil, err
	}
	return sw, nil
}

// ErrorStats computes each model's max/avg relative error against the
// sweep's reference column, plus mean runtimes.
func (sw *Sweep) ErrorStats() map[string]ErrStat {
	out := make(map[string]ErrStat)
	for _, name := range sw.Models {
		var stat ErrStat
		var n int
		var totalRT time.Duration
		for _, p := range sw.Points {
			ref, okRef := p.DT[RefName]
			got, ok := p.DT[name]
			if !ok || !okRef {
				continue
			}
			totalRT += p.Runtime[name]
			if name == RefName {
				n++
				continue
			}
			e := units.RelErr(got, ref)
			stat.Avg += e
			if e > stat.Max {
				stat.Max = e
			}
			n++
		}
		if n > 0 {
			stat.Avg /= float64(n)
			stat.AvgRuntime = totalRT / time.Duration(n)
		}
		out[name] = stat
	}
	return out
}

// Table renders the sweep as a table with one column per model.
func (sw *Sweep) Table() *report.Table {
	cols := append([]string{sw.XLabel}, sw.Models...)
	t := report.NewTable(sw.Title, cols...)
	for _, p := range sw.Points {
		row := make([]string, 0, len(cols))
		row = append(row, trimFloat(p.X))
		for _, m := range sw.Models {
			row = append(row, fmt.Sprintf("%.2f", p.DT[m]))
		}
		t.AddRow(row...)
	}
	return t
}

// Plot renders the sweep as an ASCII figure.
func (sw *Sweep) Plot() *report.Plot {
	pl := &report.Plot{Title: sw.Title, XLabel: sw.XLabel, YLabel: "max ΔT [°C]"}
	for _, m := range sw.Models {
		s := report.Series{Name: m}
		for _, p := range sw.Points {
			if dt, ok := p.DT[m]; ok {
				s.X = append(s.X, p.X)
				s.Y = append(s.Y, dt)
			}
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
