package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/units"
)

// HeadlineResult aggregates every sweep into the abstract's claim: the
// average error of Model A and Model B against the reference over all
// varied TTSV parameters (paper: 2% and 4% vs COMSOL with the authors'
// fitted coefficients; against this repository's FVM reference the fitted
// coefficients come from Calibrate).
type HeadlineResult struct {
	// PerSweep maps experiment id -> model -> error statistics.
	PerSweep map[string]map[string]ErrStat
	// Overall maps model -> mean of the per-sweep average errors.
	Overall map[string]float64
}

// Headline aggregates the error statistics of Figs. 4-7, read from cfg's
// memo when figure runs on cfg already drew them.
func Headline(cfg Config) (*HeadlineResult, error) {
	sweeps := []func(Config) (*Sweep, error){Fig4, Fig5, Fig6, Fig7}
	out := &HeadlineResult{
		PerSweep: make(map[string]map[string]ErrStat),
		Overall:  make(map[string]float64),
	}
	counts := make(map[string]int)
	for _, run := range sweeps {
		sw, err := run(cfg)
		if err != nil {
			return nil, err
		}
		stats := sw.ErrorStats()
		out.PerSweep[sw.ID] = stats
		for name, st := range stats {
			if name == RefName {
				continue
			}
			out.Overall[name] += st.Avg
			counts[name]++
		}
	}
	for name, c := range counts {
		out.Overall[name] /= float64(c)
	}
	return out, nil
}

// Table renders the per-sweep and overall error summary.
func (h *HeadlineResult) Table() *report.Table {
	tb := report.NewTable("Average relative error vs. the FVM reference",
		"sweep", "model", "avg error", "max error", "avg runtime")
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7"} {
		stats, ok := h.PerSweep[id]
		if !ok {
			continue
		}
		for _, model := range sortedKeys(stats) {
			if model == RefName {
				st := stats[model]
				tb.AddRow(id, model, "-", "-", st.AvgRuntime.Round(time.Microsecond).String())
				continue
			}
			st := stats[model]
			tb.AddRow(id, model,
				fmt.Sprintf("%.1f%%", 100*st.Avg),
				fmt.Sprintf("%.1f%%", 100*st.Max),
				st.AvgRuntime.Round(time.Microsecond).String())
		}
	}
	for _, model := range sortedKeys(h.Overall) {
		tb.AddRow("ALL", model, fmt.Sprintf("%.1f%%", 100*h.Overall[model]), "", "")
	}
	return tb
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// CalibrationResult reports the re-derived Model A coefficients (§II's
// calibration workflow executed against this repository's reference solver
// instead of COMSOL).
type CalibrationResult struct {
	// Coeffs are the fitted coefficients.
	Coeffs core.Coeffs
	// RMS is the root-mean-square relative error at the calibration points.
	RMS float64
	// Points counts the calibration geometries.
	Points int
}

// Calibrate re-derives k1/k2 for Model A against the FVM reference on a
// small set of block geometries spanning all swept parameters — via radius,
// liner thickness and substrate thickness — mirroring how the paper
// obtained its fitting coefficients from FEM runs of representative blocks.
// The reference solves run as one batch under an "experiments.calibrate"
// span, on cfg.Workers and cfg.Ctx, through cfg's reference cache.
func Calibrate(cfg Config) (*CalibrationResult, error) {
	type geom struct {
		block func(float64) (*stack.Stack, error)
		um    float64
	}
	geoms := []geom{
		{stack.Fig4Block, 3}, {stack.Fig4Block, 8}, {stack.Fig4Block, 16},
		{stack.Fig5Block, 1}, {stack.Fig5Block, 3},
		{stack.Fig6Block, 20}, {stack.Fig6Block, 60},
	}
	if cfg.Quick {
		geoms = []geom{{stack.Fig4Block, 5}, {stack.Fig4Block, 12}, {stack.Fig6Block, 20}}
	}
	xs := make([]float64, 0, len(geoms))
	stacks := make([]*stack.Stack, 0, len(geoms))
	for _, g := range geoms {
		s, err := g.block(units.UM(g.um))
		if err != nil {
			return nil, err
		}
		xs = append(xs, g.um)
		stacks = append(stacks, s)
	}
	// The reference is the sweep's only column.
	sw, err := evaluate(cfg, "calibrate", xs, stacks, nil)
	if err != nil {
		return nil, err
	}
	points := make([]fit.CalibrationPoint, len(stacks))
	for i, s := range stacks {
		points[i] = fit.CalibrationPoint{Stack: s, RefDT: sw.Points[i].DT[0]}
	}
	coeffs, rms, err := fit.CalibrateModelA(points, core.UnitCoeffs())
	if err != nil {
		return nil, err
	}
	return &CalibrationResult{Coeffs: coeffs, RMS: rms, Points: len(points)}, nil
}
