package stack

import (
	"math"
	"strings"
	"testing"

	"repro/internal/materials"
	"repro/internal/units"
)

func validStack(t *testing.T) *Stack {
	t.Helper()
	s, err := DefaultBlock().Build()
	if err != nil {
		t.Fatalf("default block invalid: %v", err)
	}
	return s
}

func TestDefaultBlockPaperValues(t *testing.T) {
	s := validStack(t)
	if got := s.Footprint; units.RelErr(got, 1e-8) > 1e-12 {
		t.Errorf("A0 = %g m², want 1e-8 (100µm × 100µm)", got)
	}
	if len(s.Planes) != 3 {
		t.Errorf("planes = %d, want 3", len(s.Planes))
	}
	if got := s.Planes[0].SiThickness; units.RelErr(got, 5e-4) > 1e-12 {
		t.Errorf("t_Si1 = %g, want 500 µm", got)
	}
	if s.Planes[0].BondThickness != 0 {
		t.Error("plane 1 has a bond layer")
	}
	if s.Planes[1].BondThickness != units.UM(1) {
		t.Errorf("t_b = %g", s.Planes[1].BondThickness)
	}
	// Device power: 700 W/mm³ × (100µm)² × 1µm = 7 mW.
	if got := s.Planes[0].DevicePower; units.RelErr(got, 7e-3) > 1e-9 {
		t.Errorf("device power = %g W, want 7e-3", got)
	}
	// ILD power: 70 W/mm³ × (100µm)² × 4µm = 2.8 mW.
	if got := s.Planes[0].ILDPower; units.RelErr(got, 2.8e-3) > 1e-9 {
		t.Errorf("ILD power = %g W, want 2.8e-3", got)
	}
	if got := s.TotalPower(); units.RelErr(got, 3*9.8e-3) > 1e-9 {
		t.Errorf("total power = %g W, want 29.4e-3", got)
	}
	if s.SinkTemp != 27 {
		t.Errorf("sink temp = %g", s.SinkTemp)
	}
	if s.Via.Fill.Name != "Cu" || s.Via.Liner.Name != "SiO2" {
		t.Errorf("via materials %s/%s", s.Via.Fill.Name, s.Via.Liner.Name)
	}
}

func TestSurroundArea(t *testing.T) {
	s := validStack(t)
	want := 1e-8 - math.Pi*math.Pow(units.UM(10.5), 2)
	if got := s.SurroundArea(); units.RelErr(got, want) > 1e-9 {
		t.Errorf("A = %g, want %g", got, want)
	}
}

func TestColumnHeight(t *testing.T) {
	s := validStack(t)
	// Plane 1: t_D + l_ext.
	if got, want := s.ColumnHeight(0), units.UM(4+1); units.RelErr(got, want) > 1e-12 {
		t.Errorf("H1 = %g, want %g", got, want)
	}
	// Middle plane: t_D + t_Si + t_b.
	if got, want := s.ColumnHeight(1), units.UM(4+45+1); units.RelErr(got, want) > 1e-12 {
		t.Errorf("H2 = %g, want %g", got, want)
	}
	// Top plane: t_Si + t_b (paper eq. (14) excludes the top ILD).
	if got, want := s.ColumnHeight(2), units.UM(45+1); units.RelErr(got, want) > 1e-12 {
		t.Errorf("H3 = %g, want %g", got, want)
	}
}

func TestClusterGeometry(t *testing.T) {
	s := validStack(t)
	s4 := s.WithViaCount(4)
	if s4.Via.SplitRadius() != s.Via.Radius/2 {
		t.Errorf("split radius = %g", s4.Via.SplitRadius())
	}
	if units.RelErr(s4.Via.MetalArea(), s.Via.MetalArea()) > 1e-12 {
		t.Error("cluster transform changed total metal area")
	}
	if s.Via.Count != 1 {
		t.Error("WithViaCount mutated the original")
	}
	if (TTSV{Radius: 1}).EffectiveCount() != 1 {
		t.Error("zero count not mapped to 1")
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Stack)
		want string
	}{
		{"zero footprint", func(s *Stack) { s.Footprint = 0 }, "footprint"},
		{"one plane", func(s *Stack) { s.Planes = s.Planes[:1] }, "planes"},
		{"zero si", func(s *Stack) { s.Planes[1].SiThickness = 0 }, "silicon"},
		{"zero ild", func(s *Stack) { s.Planes[0].ILDThickness = 0 }, "ILD"},
		{"bond on plane 1", func(s *Stack) { s.Planes[0].BondThickness = 1e-6 }, "plane 1"},
		{"no bond on plane 2", func(s *Stack) { s.Planes[1].BondThickness = 0 }, "bond"},
		{"negative power", func(s *Stack) { s.Planes[2].DevicePower = -1 }, "power"},
		{"bad device layer", func(s *Stack) { s.Planes[1].DeviceLayerThickness = 1 }, "device layer"},
		{"zero radius", func(s *Stack) { s.Via.Radius = 0 }, "radius"},
		{"zero liner", func(s *Stack) { s.Via.LinerThickness = 0 }, "liner"},
		{"extension too long", func(s *Stack) { s.Via.Extension = 1 }, "extension"},
		{"negative count", func(s *Stack) { s.Via.Count = -1 }, "count"},
		{"via too big", func(s *Stack) { s.Via.Radius = units.UM(60) }, "fit"},
		{"bad material", func(s *Stack) { s.Planes[0].Si = materials.Material{} }, "name"},
		{"bad fill", func(s *Stack) { s.Via.Fill = materials.Material{Name: "x", K: -1} }, "conductivity"},
	}
	for _, m := range mutations {
		s := validStack(t)
		m.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the broken stack", m.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(m.want)) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}
}

func TestValidateClusterFit(t *testing.T) {
	// 16 vias of 2.5µm+3µm liner occupy 16·π·(5.5µm)² ≈ 1.52e-9 < 1e-8: ok.
	c := DefaultBlock()
	c.R = units.UM(10)
	c.TL = units.UM(3)
	c.ViaCount = 16
	if _, err := c.Build(); err != nil {
		t.Errorf("valid cluster rejected: %v", err)
	}
	// A liner so thick the split vias no longer fit.
	s := validStack(t)
	s.Via.Count = 400
	s.Via.LinerThickness = units.UM(8)
	if err := s.Validate(); err == nil {
		t.Error("oversized cluster accepted")
	}
}

func TestAspectRatio(t *testing.T) {
	s, err := Fig4Block(units.UM(5))
	if err != nil {
		t.Fatal(err)
	}
	// Via length: lext + ILD1 + (ILD+Si+b)*? — structural depth through all
	// planes: 1 + 4 + (4+5+1) + (4+5+1) = 25 µm; diameter 10 µm => 2.5.
	if got := s.AspectRatio(); units.RelErr(got, 2.5) > 1e-9 {
		t.Errorf("aspect ratio = %g, want 2.5", got)
	}
	if err := s.ValidateFabrication(); err != nil {
		t.Errorf("aspect ratio 2.5 flagged: %v", err)
	}
	// r = 1µm in the Fig. 4 sweep has ratio 25/2 = 12.5 > 10 (the paper
	// itself sweeps past the limit at the low end).
	s1, err := Fig4Block(units.UM(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ValidateFabrication(); err == nil {
		t.Error("aspect ratio 12.5 not flagged")
	}
}

func TestFigureBlocks(t *testing.T) {
	if s, err := Fig4Block(units.UM(3)); err != nil {
		t.Errorf("Fig4Block(3µm): %v", err)
	} else if s.Planes[1].SiThickness != units.UM(5) {
		t.Errorf("Fig4Block(3µm) t_Si = %g, want 5µm", s.Planes[1].SiThickness)
	}
	if s, err := Fig4Block(units.UM(12)); err != nil {
		t.Errorf("Fig4Block(12µm): %v", err)
	} else if s.Planes[1].SiThickness != units.UM(45) {
		t.Errorf("Fig4Block(12µm) t_Si = %g, want 45µm", s.Planes[1].SiThickness)
	}
	if s, err := Fig5Block(units.UM(2)); err != nil {
		t.Errorf("Fig5Block: %v", err)
	} else {
		if s.Via.LinerThickness != units.UM(2) || s.Via.Radius != units.UM(5) || s.Planes[0].ILDThickness != units.UM(7) {
			t.Error("Fig5Block parameters wrong")
		}
	}
	if s, err := Fig6Block(units.UM(30)); err != nil {
		t.Errorf("Fig6Block: %v", err)
	} else if s.Planes[2].SiThickness != units.UM(30) || s.Via.Radius != units.UM(8) {
		t.Error("Fig6Block parameters wrong")
	}
	if s, err := Fig7Block(9); err != nil {
		t.Errorf("Fig7Block: %v", err)
	} else {
		if s.Via.EffectiveCount() != 9 {
			t.Error("Fig7Block count wrong")
		}
		if units.RelErr(s.Via.SplitRadius(), units.UM(10)/3) > 1e-9 {
			t.Errorf("Fig7Block split radius = %g", s.Via.SplitRadius())
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	c := DefaultBlock()
	c.NumPlanes = 1
	if _, err := c.Build(); err == nil {
		t.Error("1-plane config accepted")
	}
	c = DefaultBlock()
	c.R = 0
	if _, err := c.Build(); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := validStack(t)
	c := s.Clone()
	c.Planes[0].DevicePower = 99
	c.Via.Radius = 1
	if s.Planes[0].DevicePower == 99 || s.Via.Radius == 1 {
		t.Error("Clone shares state")
	}
}

func TestPlaneHelpers(t *testing.T) {
	p := Plane{SiThickness: 2e-6, ILDThickness: 1e-6, BondThickness: 0.5e-6, DevicePower: 1, ILDPower: 0.25}
	if got := p.TotalPower(); got != 1.25 {
		t.Errorf("TotalPower = %g", got)
	}
	if got := p.Height(); units.RelErr(got, 3.5e-6) > 1e-12 {
		t.Errorf("Height = %g", got)
	}
}
