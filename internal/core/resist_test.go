package core

import (
	"math"
	"testing"

	"repro/internal/stack"
	"repro/internal/units"
)

// fig4Stack returns the Fig. 4 stack at r = 10 µm.
func fig4Stack(t testing.TB) *stack.Stack {
	t.Helper()
	s, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResistancesHandComputed(t *testing.T) {
	// Hand-evaluate eqs. (7)-(16) for the Fig. 4 geometry at r = 10 µm with
	// unit coefficients: t_L = 0.5, t_D = 4, t_b = 1, t_Si = 45, t_Si1 = 500,
	// l_ext = 1 (µm); k_Si = 130, k_D = k_L = 1.4, k_b = 0.15, k_f = 400.
	s := fig4Stack(t)
	res, rs, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	area := 1e-8 - math.Pi*10.5e-6*10.5e-6

	// R1 = (tD/kD + lext/kSi)/A
	r1 := (4e-6/1.4 + 1e-6/130) / area
	if got := res[0].Surround; units.RelErr(got, r1) > 1e-12 {
		t.Errorf("R1 = %g, want %g", got, r1)
	}
	// R2 = (tD+lext)/(kf π r²)
	r2 := 5e-6 / (400 * math.Pi * 1e-10)
	if got := res[0].Metal; units.RelErr(got, r2) > 1e-12 {
		t.Errorf("R2 = %g, want %g", got, r2)
	}
	// R3 = ln((r+tL)/r)/(2π kL (tD+lext))
	r3 := math.Log(10.5/10.0) / (2 * math.Pi * 1.4 * 5e-6)
	if got := res[0].Liner; units.RelErr(got, r3) > 1e-12 {
		t.Errorf("R3 = %g, want %g", got, r3)
	}
	// R4 = (tD/kD + tSi/kSi + tb/kb)/A
	r4 := (4e-6/1.4 + 45e-6/130 + 1e-6/0.15) / area
	if got := res[1].Surround; units.RelErr(got, r4) > 1e-12 {
		t.Errorf("R4 = %g, want %g", got, r4)
	}
	// R5 = (tD+tSi+tb)/(kf π r²)
	r5 := 50e-6 / (400 * math.Pi * 1e-10)
	if got := res[1].Metal; units.RelErr(got, r5) > 1e-12 {
		t.Errorf("R5 = %g, want %g", got, r5)
	}
	// R7 has the same form as R4 in this symmetric stack.
	if got := res[2].Surround; units.RelErr(got, r4) > 1e-12 {
		t.Errorf("R7 = %g, want %g", got, r4)
	}
	// R8 = (tSi+tb)/(kf π r²): the top plane column excludes the ILD.
	r8 := 46e-6 / (400 * math.Pi * 1e-10)
	if got := res[2].Metal; units.RelErr(got, r8) > 1e-12 {
		t.Errorf("R8 = %g, want %g", got, r8)
	}
	// R9 = ln((r+tL)/r)/(2π kL (tSi+tb))
	r9 := math.Log(10.5/10.0) / (2 * math.Pi * 1.4 * 46e-6)
	if got := res[2].Liner; units.RelErr(got, r9) > 1e-12 {
		t.Errorf("R9 = %g, want %g", got, r9)
	}
	// Rs = (tSi1 - lext)/(kSi A0)
	rsWant := 499e-6 / (130 * 1e-8)
	if units.RelErr(rs, rsWant) > 1e-12 {
		t.Errorf("Rs = %g, want %g", rs, rsWant)
	}
}

func TestResistancesCoefficientScaling(t *testing.T) {
	s := fig4Stack(t)
	unit, rsUnit, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	fitted, rsFitted, err := Resistances(s, Coeffs{K1: 1.3, K2: 0.55, C1: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range unit {
		if units.RelErr(fitted[i].Surround, unit[i].Surround/1.3) > 1e-12 {
			t.Errorf("plane %d: k1 scaling of Surround wrong", i)
		}
		if units.RelErr(fitted[i].Metal, unit[i].Metal/1.3) > 1e-12 {
			t.Errorf("plane %d: k1 scaling of Metal wrong", i)
		}
		if units.RelErr(fitted[i].Liner, unit[i].Liner/0.55) > 1e-12 {
			t.Errorf("plane %d: k2 scaling of Liner wrong", i)
		}
	}
	if units.RelErr(rsFitted, rsUnit/1.3) > 1e-12 {
		t.Errorf("k1 scaling of Rs wrong: %g vs %g", rsFitted, rsUnit)
	}
}

func TestResistancesC1AffectsOnlyPlane1(t *testing.T) {
	s := fig4Stack(t)
	base, rs0, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	withC1, rs1, err := Resistances(s, Coeffs{K1: 1, K2: 1, C1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(withC1[0].Surround, base[0].Surround/2) > 1e-12 {
		t.Error("C1 did not scale plane-1 surroundings")
	}
	if withC1[1].Surround != base[1].Surround || withC1[2].Surround != base[2].Surround {
		t.Error("C1 leaked into other planes")
	}
	if withC1[0].Metal != base[0].Metal || withC1[0].Liner != base[0].Liner {
		t.Error("C1 leaked into metal/liner")
	}
	if rs1 != rs0 {
		t.Error("C1 changed Rs")
	}
}

func TestResistancesClusterTransform(t *testing.T) {
	// Eq. (22): splitting the via into n parts of equal total metal area
	// leaves the vertical resistances unchanged and divides the lateral
	// resistance per the updated log term.
	s := fig4Stack(t)
	base, rs0, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 9, 16} {
		sn := s.WithViaCount(n)
		res, rsN, err := Resistances(sn, UnitCoeffs())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rsN != rs0 {
			t.Errorf("n=%d: Rs changed", n)
		}
		for i := range res {
			if units.RelErr(res[i].Surround, base[i].Surround) > 1e-12 {
				t.Errorf("n=%d plane %d: Surround changed", n, i)
			}
			if units.RelErr(res[i].Metal, base[i].Metal) > 1e-12 {
				t.Errorf("n=%d plane %d: Metal changed", n, i)
			}
			// R'3 = ln((r0 + tL√n)/r0) / (2nπ k2 kL H); check against the
			// directly evaluated eq. (22).
			h := sn.ColumnHeight(i)
			want := math.Log((s.Via.Radius+s.Via.LinerThickness*math.Sqrt(float64(n)))/s.Via.Radius) /
				(2 * float64(n) * math.Pi * 1.4 * h)
			if units.RelErr(res[i].Liner, want) > 1e-12 {
				t.Errorf("n=%d plane %d: Liner = %g, want %g", n, i, res[i].Liner, want)
			}
			if res[i].Liner >= base[i].Liner {
				t.Errorf("n=%d plane %d: lateral resistance did not decrease", n, i)
			}
		}
	}
}

func TestResistancesLinerMonotoneInTL(t *testing.T) {
	prev := 0.0
	for i, tl := range []float64{0.5, 1, 1.5, 2, 3} {
		s, err := stack.Fig5Block(units.UM(tl))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := Resistances(s, UnitCoeffs())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res[0].Liner <= prev {
			t.Fatalf("liner resistance not increasing with t_L at %g µm", tl)
		}
		prev = res[0].Liner
	}
}

func TestResistancesRejectsBadInput(t *testing.T) {
	s := fig4Stack(t)
	if _, _, err := Resistances(s, Coeffs{}); err == nil {
		t.Error("zero coefficients accepted")
	}
	if _, _, err := Resistances(s, Coeffs{K1: -1, K2: 1, C1: 1}); err == nil {
		t.Error("negative k1 accepted")
	}
	if _, _, err := Resistances(s, Coeffs{K1: 1, K2: math.NaN(), C1: 1}); err == nil {
		t.Error("NaN k2 accepted")
	}
	bad := s.Clone()
	bad.Via.Radius = -1
	if _, _, err := Resistances(bad, UnitCoeffs()); err == nil {
		t.Error("invalid stack accepted")
	}
}

func TestCoeffsConstructors(t *testing.T) {
	if c := PaperBlockCoeffs(); c.K1 != 1.3 || c.K2 != 0.55 || c.C1 != 1 {
		t.Errorf("PaperBlockCoeffs = %+v", c)
	}
	if c := PaperSystemCoeffs(); c.K1 != 1.6 || c.K2 != 0.8 || c.C1 != 3.5 {
		t.Errorf("PaperSystemCoeffs = %+v", c)
	}
	if c := UnitCoeffs(); c.K1 != 1 || c.K2 != 1 || c.C1 != 1 {
		t.Errorf("UnitCoeffs = %+v", c)
	}
	for _, c := range []Coeffs{PaperBlockCoeffs(), PaperSystemCoeffs(), UnitCoeffs()} {
		if err := c.Validate(); err != nil {
			t.Errorf("stock coefficients invalid: %v", err)
		}
	}
}

// fig4At builds the Fig. 4 stack at the given radius in µm (test helper).
func fig4At(rUM float64) (*stack.Stack, error) {
	return stack.Fig4Block(units.UM(rUM))
}
