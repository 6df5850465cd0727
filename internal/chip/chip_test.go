package chip

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/units"
)

func TestDRAMuPPaperParameters(t *testing.T) {
	sys := DRAMuP()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Area(); units.RelErr(got, 1e-4) > 1e-12 {
		t.Errorf("area = %g, want 1e-4 m²", got)
	}
	if len(sys.PlanePowers) != 3 || sys.PlanePowers[0] != 70 || sys.PlanePowers[1] != 7 {
		t.Errorf("powers = %v", sys.PlanePowers)
	}
	if sys.TSi != units.UM(300) || sys.TD != units.UM(20) || sys.TB != units.UM(10) || sys.R != units.UM(30) {
		t.Error("geometry differs from §IV-E")
	}
	if sys.ViaDensity != 0.005 {
		t.Errorf("density = %g", sys.ViaDensity)
	}
	// 0.5% of 100 mm² at r = 30 µm: 5e-7/2.83e-9 ≈ 177 vias.
	if n := sys.ViaCount(); n < 170 || n > 185 {
		t.Errorf("via count = %d, want ≈177", n)
	}
}

func TestUnitCellConservesPower(t *testing.T) {
	sys := DRAMuP()
	cell, err := sys.UnitCell()
	if err != nil {
		t.Fatal(err)
	}
	// cell power · (chip area / cell area) = total power.
	total := cell.TotalPower() * sys.Area() / sys.CellArea()
	if units.RelErr(total, 84) > 1e-9 {
		t.Errorf("recovered total power %g, want 84 W", total)
	}
	// Density identity: via metal area / cell area = ViaDensity.
	if got := cell.Via.MetalArea() / cell.Footprint; units.RelErr(got, sys.ViaDensity) > 1e-9 {
		t.Errorf("cell density %g, want %g", got, sys.ViaDensity)
	}
	if cell.Planes[0].BondThickness != 0 || cell.Planes[1].BondThickness != sys.TB {
		t.Error("bond layers misplaced")
	}
}

func TestCaseStudyReproducesPaperShape(t *testing.T) {
	// §IV-E's qualitative result: Models A and B land close to the
	// reference while the 1-D model overestimates by tens of percent
	// (paper: A 12.8, B(1000) 13.9, FEM 12, 1-D 20 — 1-D is ~65% high).
	sys := DRAMuP()
	refRes, err := sys.Analyze(fem.ReferenceModel{Res: fem.DefaultResolution()})
	if err != nil {
		t.Fatal(err)
	}
	ref := refRes.MaxDT
	a, err := sys.Analyze(core.ModelA{Coeffs: core.PaperSystemCoeffs()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Analyze(core.NewModelB(1000))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Analyze(core.Model1D{})
	if err != nil {
		t.Fatal(err)
	}
	if e := units.RelErr(b.MaxDT, ref); e > 0.10 {
		t.Errorf("Model B %g vs reference %g (err %.0f%%), want < 10%%", b.MaxDT, ref, 100*e)
	}
	if e := units.RelErr(a.MaxDT, ref); e > 0.20 {
		t.Errorf("Model A %g vs reference %g (err %.0f%%), want < 20%%", a.MaxDT, ref, 100*e)
	}
	if d.MaxDT < 1.4*ref {
		t.Errorf("1-D model %g does not overestimate reference %g by ≥40%%", d.MaxDT, ref)
	}
	// Paper-style magnitudes: everything within the 8-25 °C band.
	for _, v := range []float64{ref, a.MaxDT, b.MaxDT, d.MaxDT} {
		if v < 5 || v > 30 {
			t.Errorf("ΔT %g outside the plausible case-study band", v)
		}
	}
}

func TestAnalyzeModelsAgree(t *testing.T) {
	// B with moderate segments approximates B with many segments.
	sys := DRAMuP()
	b200, err := sys.Analyze(core.NewModelB(200))
	if err != nil {
		t.Fatal(err)
	}
	b1000, err := sys.Analyze(core.NewModelB(1000))
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(b200.MaxDT, b1000.MaxDT) > 0.03 {
		t.Errorf("B(200) %g vs B(1000) %g", b200.MaxDT, b1000.MaxDT)
	}
}

func TestValidateRejectsBadSystems(t *testing.T) {
	mutations := []func(*System){
		func(s *System) { s.Width = 0 },
		func(s *System) { s.PlanePowers = s.PlanePowers[:1] },
		func(s *System) { s.PlanePowers[0] = -1 },
		func(s *System) { s.PlanePowers[1] = math.NaN() },
		func(s *System) { s.ViaDensity = 0 },
		func(s *System) { s.ViaDensity = 1.5 },
		func(s *System) { s.R = units.MM(20) }, // one via bigger than the chip
	}
	for i, mut := range mutations {
		sys := DRAMuP()
		mut(&sys)
		if err := sys.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestUnitCellPropagatesValidation(t *testing.T) {
	sys := DRAMuP()
	sys.ViaDensity = 0
	if _, err := sys.UnitCell(); err == nil {
		t.Error("invalid system produced a unit cell")
	}
	if _, err := sys.Analyze(core.Model1D{}); err == nil {
		t.Error("Analyze on invalid system succeeded")
	}
	if _, err := sys.Analyze(fem.ReferenceModel{Res: fem.DefaultResolution()}); err == nil {
		t.Error("Analyze of the reference on invalid system succeeded")
	}
}

func TestDensitySweepMonotone(t *testing.T) {
	// More via area (higher density) must reduce the temperature: a free
	// extension experiment supported by the same machinery.
	var prev float64
	for i, density := range []float64{0.001, 0.005, 0.02, 0.05} {
		sys := DRAMuP()
		sys.ViaDensity = density
		r, err := sys.Analyze(core.NewModelB(200))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r.MaxDT >= prev {
			t.Fatalf("ΔT did not fall as density rose to %g: %g then %g", density, prev, r.MaxDT)
		}
		prev = r.MaxDT
	}
}
