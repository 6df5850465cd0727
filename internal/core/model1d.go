package core

import (
	"repro/internal/stack"
)

// Model1D is the traditional single-resistance TTSV model the paper compares
// against ([1], [7]-[9]): within each plane the via fill column and the
// plane bulk form two independent vertical resistors that exchange heat only
// at the plane boundaries — there is no lateral liner path at all. Each
// plane therefore contributes parallel(R_surround, R_metal), evaluated from
// the paper's formulas without fitting coefficients, stacked in series from
// the sink up with each plane's heat injected at its top node.
//
// The model is blind to the liner thickness (Fig. 5) and to splitting a via
// into a cluster of equal total metal area (Fig. 7), and is monotone in the
// substrate thickness (Fig. 6) — the deficiencies the paper demonstrates. It
// overestimates ΔT when most heat would enter the via laterally (the
// DRAM-µP case study, §IV-E) and underestimates it when the lateral path is
// cheap relative to the via column.
type Model1D struct{}

// Name implements Model.
func (Model1D) Name() string { return "1D" }

// Solve implements Model by accumulating the series chain
//
//	ΔT_i = R_s·Σq + Σ_{j ≤ i} parallel(R_surr_j, R_metal_j) · Σ_{k ≥ j} q_k.
func (Model1D) Solve(s *stack.Stack) (*Result, error) {
	rs, err := substrateResistance(s, UnitCoeffs())
	if err != nil {
		return nil, err
	}
	n := len(s.Planes)
	// Heat crossing plane j downwards: powers of planes j..N-1.
	crossing := make([]float64, n)
	var sum float64
	for j := n - 1; j >= 0; j-- {
		sum += s.Planes[j].TotalPower()
		crossing[j] = sum
	}
	out := &Result{
		Model:    "1D",
		PlaneDT:  make([]float64, n),
		BaseDT:   rs * sum,
		Unknowns: n + 1,
	}
	t := out.BaseDT
	for j := 0; j < n; j++ {
		r := planeResistances(s, UnitCoeffs(), j)
		t += float64(parallelR(r.Surround, r.Metal) * crossing[j])
		out.PlaneDT[j] = t
	}
	out.MaxDT = out.PlaneDT[n-1]
	return out, nil
}

// parallelR combines two thermal resistances in parallel.
func parallelR(a, b float64) float64 {
	return a * b / (a + b)
}
