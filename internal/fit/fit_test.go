package fit

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v, evals, err := NelderMead(f, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 {
		t.Fatalf("x = %v, want (3, -1)", x)
	}
	if v > 1e-7 {
		t.Errorf("min value %g", v)
	}
	if evals <= 0 {
		t.Errorf("evals = %d", evals)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _, _, err := NelderMead(f, []float64{-1.2, 1}, Options{MaxEvals: 5000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimum not found: %v", x)
	}
}

func TestNelderMeadRejectsInfeasibleRegion(t *testing.T) {
	// Objective infinite for x < 0: the minimizer must stay feasible.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] - 0.5) * (x[0] - 0.5)
	}
	x, _, _, err := NelderMead(f, []float64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.5) > 1e-4 {
		t.Fatalf("x = %v", x)
	}
}

func TestNelderMeadAllInfeasible(t *testing.T) {
	f := func([]float64) float64 { return math.Inf(1) }
	if _, _, _, err := NelderMead(f, []float64{1}, Options{MaxEvals: 50}); err == nil {
		t.Fatal("no error for fully infeasible objective")
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, _, _, err := NelderMead(func([]float64) float64 { return 0 }, nil, Options{}); err == nil {
		t.Fatal("empty start accepted")
	}
}

func TestGridSearch(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.25)*(x[1]-0.25)
	}
	x, v, err := GridSearch(f, []float64{0, 0}, []float64{1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.5) > 0.13 || math.Abs(x[1]-0.25) > 0.13 {
		t.Fatalf("grid best %v", x)
	}
	if v < 0 {
		t.Errorf("v = %g", v)
	}
}

func TestGridSearchErrors(t *testing.T) {
	f := func([]float64) float64 { return 0 }
	if _, _, err := GridSearch(f, nil, nil, 3); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, _, err := GridSearch(f, []float64{0}, []float64{1}, 1); err == nil {
		t.Error("steps=1 accepted")
	}
	if _, _, err := GridSearch(f, []float64{1}, []float64{0}, 3); err == nil {
		t.Error("reversed bounds accepted")
	}
	inf := func([]float64) float64 { return math.Inf(1) }
	if _, _, err := GridSearch(inf, []float64{0}, []float64{1}, 3); err == nil {
		t.Error("all-infinite objective accepted")
	}
}

func TestCalibrateModelARecoversKnownCoefficients(t *testing.T) {
	// Generate "reference" data from Model A itself with known coefficients;
	// calibration must recover them closely.
	truth := core.Coeffs{K1: 1.4, K2: 0.6, C1: 1}
	m := core.ModelA{Coeffs: truth}
	var points []CalibrationPoint
	for _, r := range []float64{3, 8, 15} {
		s, err := stack.Fig4Block(units.UM(r))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, CalibrationPoint{Stack: s, RefDT: res.MaxDT})
	}
	got, rms, err := CalibrateModelA(points, core.UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-3 {
		t.Errorf("residual RMS %g", rms)
	}
	if math.Abs(got.K1-truth.K1) > 0.05 || math.Abs(got.K2-truth.K2) > 0.1 {
		t.Errorf("recovered %+v, want %+v", got, truth)
	}
}

func TestCalibrateModelAAgainstFVM(t *testing.T) {
	// The real workflow: calibrate against the reference solver on a couple
	// of geometries, then check the fitted model tracks the reference on a
	// held-out geometry better than a few percent.
	if testing.Short() {
		t.Skip("FVM calibration is slow")
	}
	resolution := fem.DefaultResolution()
	var points []CalibrationPoint
	for _, r := range []float64{5, 12} {
		s, err := stack.Fig4Block(units.UM(r))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := fem.SolveStackWith(context.Background(), nil, s, resolution)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, _ := sol.MaxT()
		points = append(points, CalibrationPoint{Stack: s, RefDT: ref})
	}
	coeffs, rms, err := CalibrateModelA(points, core.UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.05 {
		t.Errorf("calibration residual %g", rms)
	}
	// Held-out point.
	s, err := stack.Fig4Block(units.UM(8))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := fem.SolveStackWith(context.Background(), nil, s, resolution)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := sol.MaxT()
	got, err := (core.ModelA{Coeffs: coeffs}).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := units.RelErr(got.MaxDT, ref); e > 0.08 {
		t.Errorf("held-out error %.1f%% (model %g vs ref %g, coeffs %+v)", 100*e, got.MaxDT, ref, coeffs)
	}
}

func TestCalibrateModelAErrors(t *testing.T) {
	if _, _, err := CalibrateModelA(nil, core.UnitCoeffs()); err == nil {
		t.Error("empty points accepted")
	}
	s, err := stack.Fig4Block(units.UM(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CalibrateModelA([]CalibrationPoint{{Stack: s, RefDT: -1}}, core.UnitCoeffs()); err == nil {
		t.Error("negative reference accepted")
	}
	if _, _, err := CalibrateModelA([]CalibrationPoint{{Stack: s, RefDT: 10}}, core.Coeffs{}); err == nil {
		t.Error("invalid start coefficients accepted")
	}
}
