package core

import (
	"math"
	"testing"

	"repro/internal/units"
)

// blockSpec returns a horizon comfortably past the block's thermal time
// constants (~ms for the 500 µm substrate).
func blockSpec() TransientSpec {
	return TransientSpec{Dt: 100e-6, Steps: 400} // 40 ms
}

func TestModelATransientReachesSteadyState(t *testing.T) {
	s := fig4Stack(t)
	m := ModelA{Coeffs: PaperBlockCoeffs()}
	static, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.SolveTransient(s, blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(tr.FinalDT, static.MaxDT) > 1e-3 {
		t.Errorf("transient final %g vs steady %g", tr.FinalDT, static.MaxDT)
	}
	if !tr.Settled {
		t.Error("did not settle within 40 ms")
	}
	if tr.SettlingTime <= 0 || tr.SettlingTime > 0.04 {
		t.Errorf("settling time %g s", tr.SettlingTime)
	}
}

func TestModelBTransientReachesSteadyState(t *testing.T) {
	s := fig4Stack(t)
	m := NewModelB(30)
	static, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.SolveTransient(s, blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(tr.FinalDT, static.MaxDT) > 1e-3 {
		t.Errorf("transient final %g vs steady %g", tr.FinalDT, static.MaxDT)
	}
}

func TestTransientMonotoneRise(t *testing.T) {
	s := fig4Stack(t)
	tr, err := (ModelA{Coeffs: PaperBlockCoeffs()}).SolveTransient(s, blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for k, dt := range tr.TopDT {
		if dt < prev-1e-12 {
			t.Fatalf("temperature dropped at step %d", k)
		}
		prev = dt
	}
	// Early in the transient the stack is far below steady state.
	if tr.TopDT[0] > 0.5*tr.FinalDT {
		t.Errorf("first step already at %g of final %g — time constants too fast", tr.TopDT[0], tr.FinalDT)
	}
}

func TestTransientModelsAgreeOnTimescale(t *testing.T) {
	// A and B lump the same physical masses, so their settling times must be
	// within a factor ~2 of each other.
	s := fig4Stack(t)
	a, err := (ModelA{Coeffs: UnitCoeffs()}).SolveTransient(s, blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModelB(30).SolveTransient(s, blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Settled || !b.Settled {
		t.Fatal("models did not settle")
	}
	ratio := a.SettlingTime / b.SettlingTime
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("settling times diverge: A %g s vs B %g s", a.SettlingTime, b.SettlingTime)
	}
}

func TestTransientBiggerViaSettlesCooler(t *testing.T) {
	// The steady-state radius trend must hold at every transient instant.
	small, err := solveTransientRadius(t, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := solveTransientRadius(t, 20)
	if err != nil {
		t.Fatal(err)
	}
	if large.FinalDT >= small.FinalDT {
		t.Errorf("larger via ends hotter: %g vs %g", large.FinalDT, small.FinalDT)
	}
}

func solveTransientRadius(t *testing.T, rUM float64) (*TransientResult, error) {
	t.Helper()
	s, err := fig4At(rUM)
	if err != nil {
		return nil, err
	}
	return (ModelA{Coeffs: PaperBlockCoeffs()}).SolveTransient(s, blockSpec())
}

func TestTransientSpecValidation(t *testing.T) {
	s := fig4Stack(t)
	m := ModelA{Coeffs: PaperBlockCoeffs()}
	for _, dt := range []float64{0, -1e-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.SolveTransient(s, TransientSpec{Dt: dt, Steps: 10}); err == nil {
			t.Errorf("dt %g accepted", dt)
		}
	}
	if _, err := m.SolveTransient(s, TransientSpec{Dt: 1e-3, Steps: 0}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := (ModelA{}).SolveTransient(s, blockSpec()); err == nil {
		t.Error("invalid coefficients accepted")
	}
	if _, err := (ModelB{}).SolveTransient(s, blockSpec()); err == nil {
		t.Error("invalid segmentation accepted")
	}
}
