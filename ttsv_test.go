package ttsv_test

import (
	"testing"

	ttsv "repro"
)

// The facade tests exercise the library exactly as a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()}.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDT <= 0 || res.MaxDT > 100 {
		t.Fatalf("implausible ΔT %g", res.MaxDT)
	}
}

func TestAllModelsThroughFacade(t *testing.T) {
	s, err := ttsv.Fig5Block(2e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ttsv.Model{
		ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()},
		ttsv.NewModelB(50),
		ttsv.Model1D{},
	} {
		r, err := m.Solve(s)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.MaxDT <= 0 {
			t.Errorf("%s: ΔT %g", m.Name(), r.MaxDT)
		}
	}
}

func TestCustomBlockThroughFacade(t *testing.T) {
	cfg := ttsv.DefaultBlock()
	cfg.NumPlanes = 4
	cfg.R = 6e-6
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := ttsv.NewModelB(40).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PlaneDT) != 4 {
		t.Fatalf("PlaneDT = %v", r.PlaneDT)
	}
}

func TestReferenceAndCalibrationThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("reference solve is slow")
	}
	s, err := ttsv.Fig4Block(8e-6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ttsv.SolveReference(s, ttsv.DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 {
		t.Fatalf("reference ΔT %g", ref)
	}
	coeffs, rms, err := ttsv.CalibrateModelA(
		[]ttsv.CalibrationPoint{{Stack: s, RefDT: ref}}, ttsv.UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.02 {
		t.Errorf("calibration residual %g", rms)
	}
	got, err := ttsv.ModelA{Coeffs: coeffs}.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := abs(got.MaxDT-ref) / ref; e > 0.02 {
		t.Errorf("calibrated model off by %.2f%%", 100*e)
	}
}

func TestCaseStudyThroughFacade(t *testing.T) {
	sys := ttsv.DRAMuP()
	r, err := sys.Analyze(ttsv.NewModelB(200))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxDT < 5 || r.MaxDT > 30 {
		t.Fatalf("case study ΔT %g outside plausible band", r.MaxDT)
	}
}

func TestClusterTransformThroughFacade(t *testing.T) {
	s, err := ttsv.Fig7Block(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()}
	one, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	nine, err := m.Solve(s.WithViaCount(9))
	if err != nil {
		t.Fatal(err)
	}
	if nine.MaxDT >= one.MaxDT {
		t.Errorf("splitting the via did not reduce ΔT: %g vs %g", nine.MaxDT, one.MaxDT)
	}
}

func TestResistancesThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	res, rs, err := ttsv.Resistances(s, ttsv.UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || rs <= 0 {
		t.Fatalf("res = %v, rs = %g", res, rs)
	}
	for i, pr := range res {
		if pr.Surround <= 0 || pr.Metal <= 0 || pr.Liner <= 0 {
			t.Errorf("plane %d: non-positive resistance %+v", i, pr)
		}
	}
}

func TestStockMaterials(t *testing.T) {
	if ttsv.Copper.K != 400 || ttsv.SiO2.K != 1.4 || ttsv.Polyimide.K != 0.15 || ttsv.Silicon.K != 130 {
		t.Error("stock materials differ from the paper")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFigureBuildersThroughFacade(t *testing.T) {
	if _, err := ttsv.Fig6Block(30e-6); err != nil {
		t.Error(err)
	}
	if _, err := ttsv.Fig7Block(9); err != nil {
		t.Error(err)
	}
	if ttsv.DefaultResolution() != (ttsv.Resolution{}) {
		t.Error("default resolution is not the zero value")
	}
}

func TestTransientThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ttsv.NewModelB(20).SolveTransient(s, ttsv.TransientSpec{Dt: 1e-4, Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Settled || tr.FinalDT <= 0 {
		t.Fatalf("transient = %+v", tr)
	}
	static, err := ttsv.NewModelB(20).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if abs(tr.FinalDT-static.MaxDT)/static.MaxDT > 1e-3 {
		t.Errorf("transient final %g vs static %g", tr.FinalDT, static.MaxDT)
	}
}

func TestNonlinearThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Planes {
		s.Planes[i].Si.TempCoeff = -0.004
	}
	res, iters, err := ttsv.SolveNonlinear(ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()}, s, 20, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDT <= 0 || iters < 2 {
		t.Fatalf("nonlinear = %+v after %d iterations", res, iters)
	}
}

func TestPlanningThroughFacade(t *testing.T) {
	f := &ttsv.Floorplan{TileSide: 0.75e-3}
	f.PlanePowers = [][][]float64{{{0.4, 0.05, 0.05}}}
	res, err := ttsv.PlanInsertion(f, ttsv.DefaultTechnology(), 13, ttsv.ModelA{Coeffs: ttsv.PaperSystemCoeffs()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalVias < 1 || res.MaxDT > 13 {
		t.Fatalf("plan = %+v", res)
	}
}
