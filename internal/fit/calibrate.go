package fit

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stack"
	"repro/internal/units"
)

// CalibrationPoint pairs a geometry with its reference maximum temperature
// rise (from the FVM solver or any other trusted source).
type CalibrationPoint struct {
	Stack *stack.Stack
	RefDT float64
}

// CalibrateModelA finds the (k1, k2) pair minimizing the mean squared
// relative error of Model A's maximum ΔT against the reference points,
// mirroring the paper's calibration of its fitting coefficients against FEM
// runs of a representative block (§II, §IV-E). C1 is kept at the start
// value's C1.
//
// A coarse grid search seeds a Nelder-Mead refinement; the returned Coeffs
// always validate.
func CalibrateModelA(points []CalibrationPoint, start core.Coeffs) (core.Coeffs, float64, error) {
	if len(points) == 0 {
		return core.Coeffs{}, 0, fmt.Errorf("fit: no calibration points")
	}
	if err := start.Validate(); err != nil {
		return core.Coeffs{}, 0, err
	}
	for i, p := range points {
		if p.Stack == nil || p.RefDT <= 0 || math.IsNaN(p.RefDT) {
			return core.Coeffs{}, 0, fmt.Errorf("fit: calibration point %d invalid (ref %g)", i, p.RefDT)
		}
	}
	obj := func(x []float64) float64 {
		c := core.Coeffs{K1: x[0], K2: x[1], C1: start.C1}
		if c.Validate() != nil {
			return math.Inf(1)
		}
		m := core.ModelA{Coeffs: c}
		var sse float64
		for _, p := range points {
			dt, err := m.MaxDT(p.Stack)
			if err != nil {
				return math.Inf(1)
			}
			e := units.RelErr(dt, p.RefDT)
			sse += float64(e * e)
		}
		return sse / float64(len(points))
	}
	seed, _, err := GridSearch(obj, []float64{0.5, 0.1}, []float64{3, 2}, 9)
	if err != nil {
		return core.Coeffs{}, 0, err
	}
	x, v, _, err := NelderMead(obj, seed, Options{MaxEvals: 600, Tol: 1e-12})
	if err != nil {
		return core.Coeffs{}, 0, err
	}
	return core.Coeffs{K1: x[0], K2: x[1], C1: start.C1}, math.Sqrt(v), nil
}
