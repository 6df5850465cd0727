package core

import (
	"math"
	"testing"

	"repro/internal/stack"
	"repro/internal/units"
)

func solveB(t *testing.T, m ModelB, s *stack.Stack) *Result {
	t.Helper()
	r, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewModelBPaperPairs(t *testing.T) {
	// Table I uses segment pairs (1,1), (2,20), (10,100), (50,500).
	cases := []struct{ n, wantN1 int }{
		{1, 1}, {20, 2}, {100, 10}, {500, 50}, {1000, 100}, {5, 1},
	}
	for _, c := range cases {
		m := NewModelB(c.n)
		if m.PlaneSegments != c.n || m.Plane1Segments != c.wantN1 {
			t.Errorf("NewModelB(%d) = %+v, want plane1 %d", c.n, m, c.wantN1)
		}
	}
}

func TestModelBName(t *testing.T) {
	if got := NewModelB(100).Name(); got != "B(100)" {
		t.Errorf("Name = %q", got)
	}
}

func TestSplitSegments(t *testing.T) {
	s := splitSegments(1, 4e-6, 45e-6)
	if s.nILD != 1 || s.nSi != 0 {
		t.Errorf("split(1) = %+v", s)
	}
	s = splitSegments(100, 7e-6, 45e-6)
	if s.nILD+s.nSi != 100 || s.nILD < 1 || s.nSi < 1 {
		t.Errorf("split(100) = %+v", s)
	}
	// ILD share should be roughly proportional to thickness: 7/52 of 100 ≈ 13.
	if s.nILD < 8 || s.nILD > 20 {
		t.Errorf("split(100).nILD = %d, expected near 13", s.nILD)
	}
	// Extreme thin ILD still gets one segment.
	s = splitSegments(10, 1e-9, 1e-4)
	if s.nILD != 1 || s.nSi != 9 {
		t.Errorf("split(thin ILD) = %+v", s)
	}
	// Extreme thick ILD leaves one silicon segment.
	s = splitSegments(10, 1e-4, 1e-9)
	if s.nILD != 9 || s.nSi != 1 {
		t.Errorf("split(thick ILD) = %+v", s)
	}
}

func TestModelBUnknownCount(t *testing.T) {
	// 2·n_A + 1 unknowns (the paper's 2·n_A plus the T0 node we keep
	// explicit).
	s := fig4Stack(t)
	m := ModelB{Plane1Segments: 3, PlaneSegments: 10}
	r := solveB(t, m, s)
	wantSegments := 3 + 10 + 10
	if r.Unknowns != 2*wantSegments+1 {
		t.Errorf("unknowns = %d, want %d", r.Unknowns, 2*wantSegments+1)
	}
}

func TestModelBBaseTempEq6(t *testing.T) {
	// All heat still drains through Rs, so T0 = Rs·Σq holds exactly.
	s := fig4Stack(t)
	r := solveB(t, NewModelB(20), s)
	_, rs, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(r.BaseDT, rs*s.TotalPower()) > 1e-9 {
		t.Errorf("T0 = %g, want %g", r.BaseDT, rs*s.TotalPower())
	}
}

func TestModelBConvergesWithSegments(t *testing.T) {
	// Refining the segmentation must converge: successive refinements get
	// closer to the finest result (Table I's premise).
	s := fig4Stack(t)
	ref := solveB(t, NewModelB(800), s).MaxDT
	var prevErr float64
	for i, n := range []int{1, 20, 100, 400} {
		got := solveB(t, NewModelB(n), s).MaxDT
		e := math.Abs(got - ref)
		if i > 0 && e > prevErr*1.05 { // small slack for non-monotone wiggle
			t.Fatalf("segment refinement not converging: err(%d) = %g, previous %g", n, e, prevErr)
		}
		prevErr = e
	}
	if prevErr/ref > 0.02 {
		t.Errorf("B(400) still %g%% from B(800)", 100*prevErr/ref)
	}
}

func TestModelBSingleSegmentNearModelAUnitCoeffs(t *testing.T) {
	// B(1) collapses to one π-segment per plane — the same topology as
	// Model A with k1 = k2 = 1 up to where in the plane the liner attaches.
	// The two must agree within a modest tolerance.
	s := fig4Stack(t)
	b1 := solveB(t, NewModelB(1), s).MaxDT
	a, err := (ModelA{Coeffs: UnitCoeffs()}).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(b1, a.MaxDT) > 0.15 {
		t.Errorf("B(1) = %g vs A(unit) = %g differ by more than 15%%", b1, a.MaxDT)
	}
}

func TestModelBLinearInPower(t *testing.T) {
	s := fig4Stack(t)
	r1 := solveB(t, NewModelB(50), s)
	s2 := s.Clone()
	for i := range s2.Planes {
		s2.Planes[i].DevicePower *= 2
		s2.Planes[i].ILDPower *= 2
	}
	r2 := solveB(t, NewModelB(50), s2)
	if units.RelErr(r2.MaxDT, 2*r1.MaxDT) > 1e-8 {
		t.Errorf("doubling power: %g, want %g", r2.MaxDT, 2*r1.MaxDT)
	}
}

func TestModelBPlaneMonotone(t *testing.T) {
	s := fig4Stack(t)
	r := solveB(t, NewModelB(100), s)
	prev := r.BaseDT
	for i, dt := range r.PlaneDT {
		if dt <= prev {
			t.Fatalf("plane %d ΔT %g not above %g", i+1, dt, prev)
		}
		prev = dt
	}
	if r.MaxDT < r.PlaneDT[2] {
		t.Errorf("max ΔT %g below top plane %g", r.MaxDT, r.PlaneDT[2])
	}
}

func TestModelBQualitativeBehaviors(t *testing.T) {
	m := NewModelB(100)
	// Fig. 5: liner thickness raises ΔT.
	thin, err := stack.Fig5Block(units.UM(0.5))
	if err != nil {
		t.Fatal(err)
	}
	thick, err := stack.Fig5Block(units.UM(3))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := solveB(t, m, thin).MaxDT, solveB(t, m, thick).MaxDT; a >= b {
		t.Errorf("liner effect missing: %g vs %g", a, b)
	}
	// Fig. 6: non-monotone in t_Si.
	at := func(tsi float64) float64 {
		s, err := stack.Fig6Block(units.UM(tsi))
		if err != nil {
			t.Fatal(err)
		}
		return solveB(t, m, s).MaxDT
	}
	lo, mid, hi := at(5), at(20), at(80)
	if !(lo > mid && hi > mid) {
		t.Errorf("non-monotone t_Si behavior missing: %g, %g, %g", lo, mid, hi)
	}
	// Fig. 7: cluster split lowers ΔT.
	s1, err := stack.Fig7Block(1)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := stack.Fig7Block(16)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := solveB(t, m, s1).MaxDT, solveB(t, m, s16).MaxDT; b >= a {
		t.Errorf("cluster effect missing: n=1 %g vs n=16 %g", a, b)
	}
}

func TestModelBLargeSystem(t *testing.T) {
	// B(1000) is a 4201-node ladder, the largest Model B the repository
	// runs; its result must stay close to a moderate segmentation.
	s := fig4Stack(t)
	big := solveB(t, NewModelB(1000), s).MaxDT
	mid := solveB(t, NewModelB(200), s).MaxDT
	if units.RelErr(big, mid) > 0.02 {
		t.Errorf("B(1000) = %g vs B(200) = %g differ by more than 2%%", big, mid)
	}
}

func TestModelBFivePlanes(t *testing.T) {
	c := stack.DefaultBlock()
	c.NumPlanes = 5
	s, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := solveB(t, NewModelB(40), s)
	if len(r.PlaneDT) != 5 {
		t.Fatalf("PlaneDT = %v", r.PlaneDT)
	}
	prev := r.BaseDT
	for i, dt := range r.PlaneDT {
		if dt <= prev {
			t.Fatalf("plane %d not hotter (%g <= %g)", i+1, dt, prev)
		}
		prev = dt
	}
}

func TestModelBInvalidSegments(t *testing.T) {
	s := fig4Stack(t)
	if _, err := (ModelB{Plane1Segments: 0, PlaneSegments: 10}).Solve(s); err == nil {
		t.Error("zero plane-1 segments accepted")
	}
	if _, err := (ModelB{Plane1Segments: 1, PlaneSegments: -5}).Solve(s); err == nil {
		t.Error("negative segments accepted")
	}
}
