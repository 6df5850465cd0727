package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stack"
	"repro/internal/units"
)

func solveA(t *testing.T, s *stack.Stack) *Result {
	t.Helper()
	r, err := (ModelA{Coeffs: PaperBlockCoeffs()}).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModelAMatchesTranscribedEquations(t *testing.T) {
	// The topologically assembled network and the literal transcription of
	// eqs. (1)-(6) must agree to solver precision across geometries.
	cases := []func() (*stack.Stack, error){
		func() (*stack.Stack, error) { return stack.Fig4Block(units.UM(1)) },
		func() (*stack.Stack, error) { return stack.Fig4Block(units.UM(10)) },
		func() (*stack.Stack, error) { return stack.Fig5Block(units.UM(3)) },
		func() (*stack.Stack, error) { return stack.Fig6Block(units.UM(5)) },
		func() (*stack.Stack, error) { return stack.Fig6Block(units.UM(80)) },
		func() (*stack.Stack, error) { return stack.Fig7Block(16) },
	}
	for i, mk := range cases {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []Coeffs{UnitCoeffs(), PaperBlockCoeffs(), PaperSystemCoeffs()} {
			net, err := (ModelA{Coeffs: c}).Solve(s)
			if err != nil {
				t.Fatalf("case %d: network: %v", i, err)
			}
			eqs, err := SolveThreePlaneEquations(s, c)
			if err != nil {
				t.Fatalf("case %d: equations: %v", i, err)
			}
			if units.RelErr(net.MaxDT, eqs.MaxDT) > 1e-9 {
				t.Errorf("case %d coeffs %+v: maxΔT %g (network) vs %g (equations)", i, c, net.MaxDT, eqs.MaxDT)
			}
			for p := range net.PlaneDT {
				if units.RelErr(net.PlaneDT[p], eqs.PlaneDT[p]) > 1e-9 {
					t.Errorf("case %d plane %d: %g vs %g", i, p, net.PlaneDT[p], eqs.PlaneDT[p])
				}
			}
			if units.RelErr(net.BaseDT, eqs.BaseDT) > 1e-9 {
				t.Errorf("case %d: base %g vs %g", i, net.BaseDT, eqs.BaseDT)
			}
		}
	}
}

func TestModelABaseTempEq6(t *testing.T) {
	// Eq. (6): T0 = Rs·Σq, independently of everything above.
	s := fig4Stack(t)
	r := solveA(t, s)
	_, rs, err := Resistances(s, PaperBlockCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	want := rs * s.TotalPower()
	if units.RelErr(r.BaseDT, want) > 1e-9 {
		t.Errorf("T0 = %g, want Rs·Σq = %g", r.BaseDT, want)
	}
}

func TestModelATopPlaneHottest(t *testing.T) {
	s := fig4Stack(t)
	r := solveA(t, s)
	if r.MaxDT != r.PlaneDT[len(r.PlaneDT)-1] {
		t.Errorf("max ΔT %g is not the top plane's %g", r.MaxDT, r.PlaneDT[2])
	}
	// Temperatures must increase monotonically with plane index: every
	// plane's heat flows down through the planes below.
	prev := r.BaseDT
	for i, dt := range r.PlaneDT {
		if dt <= prev {
			t.Fatalf("plane %d ΔT %g not above lower level %g", i+1, dt, prev)
		}
		prev = dt
	}
	if r.BaseDT <= 0 {
		t.Errorf("T0 = %g, want positive", r.BaseDT)
	}
}

func TestModelAZeroPower(t *testing.T) {
	s := fig4Stack(t)
	for i := range s.Planes {
		s.Planes[i].DevicePower = 0
		s.Planes[i].ILDPower = 0
	}
	r := solveA(t, s)
	if math.Abs(r.MaxDT) > 1e-12 {
		t.Errorf("ΔT = %g with zero power", r.MaxDT)
	}
}

func TestModelALinearInPower(t *testing.T) {
	s := fig4Stack(t)
	r1 := solveA(t, s)
	s2 := s.Clone()
	for i := range s2.Planes {
		s2.Planes[i].DevicePower *= 3
		s2.Planes[i].ILDPower *= 3
	}
	r3 := solveA(t, s2)
	if units.RelErr(r3.MaxDT, 3*r1.MaxDT) > 1e-9 {
		t.Errorf("tripling power: ΔT %g, want %g", r3.MaxDT, 3*r1.MaxDT)
	}
}

func TestModelASuperposition(t *testing.T) {
	// Solving with only plane i powered and summing must equal the full
	// solve (linearity of the network).
	s := fig4Stack(t)
	full := solveA(t, s)
	sum := make([]float64, len(s.Planes))
	for i := range s.Planes {
		si := s.Clone()
		for j := range si.Planes {
			if j != i {
				si.Planes[j].DevicePower = 0
				si.Planes[j].ILDPower = 0
			}
		}
		part := solveA(t, si)
		for p, dt := range part.PlaneDT {
			sum[p] += dt
		}
	}
	for p := range sum {
		if units.RelErr(sum[p], full.PlaneDT[p]) > 1e-9 {
			t.Errorf("superposition at plane %d: Σ single-plane %g vs full %g", p+1, sum[p], full.PlaneDT[p])
		}
	}
}

func TestModelARadiusMonotone(t *testing.T) {
	// Fig. 4 behavior: larger via, lower ΔT (within a fixed t_Si regime).
	var prev float64
	for i, r := range []float64{6, 8, 10, 14, 20} {
		s, err := stack.Fig4Block(units.UM(r))
		if err != nil {
			t.Fatal(err)
		}
		res := solveA(t, s)
		if i > 0 && res.MaxDT >= prev {
			t.Fatalf("ΔT did not decrease from r=%gµm (%g) to larger radius (%g)", r, prev, res.MaxDT)
		}
		prev = res.MaxDT
	}
}

func TestModelALinerMonotone(t *testing.T) {
	// Fig. 5 behavior: thicker liner, higher ΔT.
	var prev float64
	for i, tl := range []float64{0.5, 1, 1.5, 2, 2.5, 3} {
		s, err := stack.Fig5Block(units.UM(tl))
		if err != nil {
			t.Fatal(err)
		}
		res := solveA(t, s)
		if i > 0 && res.MaxDT <= prev {
			t.Fatalf("ΔT did not increase from t_L=%gµm (%g to %g)", tl, prev, res.MaxDT)
		}
		prev = res.MaxDT
	}
}

func TestModelASiliconNonMonotone(t *testing.T) {
	// Fig. 6 headline behavior: ΔT vs t_Si has an interior minimum — the
	// vertical resistances grow with t_Si while the lateral liner resistance
	// shrinks. The 1-D model (tested elsewhere) is monotone instead.
	var dts []float64
	ticks := []float64{5, 10, 20, 40, 60, 80}
	for _, tsi := range ticks {
		s, err := stack.Fig6Block(units.UM(tsi))
		if err != nil {
			t.Fatal(err)
		}
		dts = append(dts, solveA(t, s).MaxDT)
	}
	if !(dts[0] > dts[2]) {
		t.Errorf("ΔT(5µm)=%g not above ΔT(20µm)=%g", dts[0], dts[2])
	}
	if !(dts[len(dts)-1] > dts[2]) {
		t.Errorf("ΔT(80µm)=%g not above ΔT(20µm)=%g", dts[len(dts)-1], dts[2])
	}
}

func TestModelAClusterMonotoneSaturating(t *testing.T) {
	// Fig. 7 behavior: more (thinner) vias of equal total metal area lower
	// ΔT with diminishing returns.
	var dts []float64
	for _, n := range []int{1, 2, 4, 9, 16} {
		s, err := stack.Fig7Block(n)
		if err != nil {
			t.Fatal(err)
		}
		dts = append(dts, solveA(t, s).MaxDT)
	}
	for i := 1; i < len(dts); i++ {
		if dts[i] >= dts[i-1] {
			t.Fatalf("ΔT did not decrease at cluster step %d: %v", i, dts)
		}
	}
	// Diminishing improvement: the 9->16 gain is smaller than the 1->2 gain.
	if dts[0]-dts[1] <= dts[3]-dts[4] {
		t.Errorf("no saturation: first gain %g, last gain %g", dts[0]-dts[1], dts[3]-dts[4])
	}
}

func TestModelAFivePlanes(t *testing.T) {
	// The model extends to N planes (paper §II end). A 5-plane stack must
	// solve, stay monotone in plane index, and obey eq. (6).
	c := stack.DefaultBlock()
	c.NumPlanes = 5
	s, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := solveA(t, s)
	if len(r.PlaneDT) != 5 {
		t.Fatalf("PlaneDT has %d entries", len(r.PlaneDT))
	}
	prev := r.BaseDT
	for i, dt := range r.PlaneDT {
		if dt <= prev {
			t.Fatalf("plane %d not hotter than below (%g <= %g)", i+1, dt, prev)
		}
		prev = dt
	}
	_, rs, err := Resistances(s, PaperBlockCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(r.BaseDT, rs*s.TotalPower()) > 1e-9 {
		t.Errorf("eq. (6) violated for 5 planes")
	}
}

func TestModelATwoPlanes(t *testing.T) {
	c := stack.DefaultBlock()
	c.NumPlanes = 2
	s, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := solveA(t, s)
	if len(r.PlaneDT) != 2 || r.MaxDT <= 0 {
		t.Fatalf("2-plane solve wrong: %+v", r)
	}
}

func TestModelAInvalidInputs(t *testing.T) {
	s := fig4Stack(t)
	if _, err := (ModelA{}).Solve(s); err == nil {
		t.Error("zero-value coefficients accepted")
	}
	bad := s.Clone()
	bad.Planes = bad.Planes[:1]
	if _, err := (ModelA{Coeffs: UnitCoeffs()}).Solve(bad); err == nil {
		t.Error("single-plane stack accepted")
	}
	if _, err := SolveThreePlaneEquations(bad, UnitCoeffs()); err == nil {
		t.Error("equations accepted non-3-plane stack")
	}
}

// Property: for random valid geometries, network and transcription agree and
// produce positive temperatures.
func TestModelAEquationsAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := func(lo, hi float64, bits int64) float64 {
			x := float64((seed>>bits)&0xff) / 255.0
			return lo + (hi-lo)*x
		}
		c := stack.DefaultBlock()
		c.R = units.UM(rnd(1, 20, 0))
		c.TL = units.UM(rnd(0.2, 3, 8))
		c.TD = units.UM(rnd(1, 10, 16))
		c.TSi = units.UM(rnd(5, 80, 24))
		c.TB = units.UM(rnd(0.5, 5, 32))
		s, err := c.Build()
		if err != nil {
			return true // geometry rejected by validation is fine
		}
		a, err := (ModelA{Coeffs: PaperBlockCoeffs()}).Solve(s)
		if err != nil {
			return false
		}
		e, err := SolveThreePlaneEquations(s, PaperBlockCoeffs())
		if err != nil {
			return false
		}
		return a.MaxDT > 0 && units.RelErr(a.MaxDT, e.MaxDT) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// figureStacks returns every block of the paper's Figs. 4–7 sweeps.
func figureStacks(t *testing.T) []*stack.Stack {
	t.Helper()
	var out []*stack.Stack
	add := func(s *stack.Stack, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	for _, r := range []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20} {
		add(stack.Fig4Block(units.UM(r)))
	}
	for _, tl := range []float64{0.5, 1, 1.5, 2, 2.5, 3} {
		add(stack.Fig5Block(units.UM(tl)))
	}
	for _, tsi := range []float64{5, 10, 15, 20, 30, 40, 50, 60, 70, 80} {
		add(stack.Fig6Block(units.UM(tsi)))
	}
	for _, n := range []int{1, 2, 4, 9, 16} {
		add(stack.Fig7Block(n))
	}
	return out
}

// TestModelAMaxDTMatchesSolve: MaxDT is Solve's MaxDT bit for bit on every
// figure block, at the paper's and at random valid coefficients on random
// blocks, and fails where Solve fails.
func TestModelAMaxDTMatchesSolve(t *testing.T) {
	same := func(m ModelA, s *stack.Stack) bool {
		r, err := m.Solve(s)
		dt, errDT := m.MaxDT(s)
		if err != nil || errDT != nil {
			return err != nil && errDT != nil && err.Error() == errDT.Error()
		}
		return math.Float64bits(dt) == math.Float64bits(r.MaxDT)
	}
	paper := ModelA{Coeffs: PaperBlockCoeffs()}
	for i, s := range figureStacks(t) {
		if !same(paper, s) {
			t.Errorf("figure block %d: MaxDT differs from Solve(s).MaxDT", i)
		}
	}
	f := func(seed int64, k1, k2, c1 uint16) bool {
		s, ok := randomBlock(seed)
		if !ok {
			return true
		}
		coeff := func(u uint16) float64 { return 0.05 + 4*float64(u)/math.MaxUint16 }
		return same(ModelA{Coeffs: Coeffs{K1: coeff(k1), K2: coeff(k2), C1: coeff(c1)}}, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if !same(ModelA{}, figureStacks(t)[0]) {
		t.Error("zero coefficients: MaxDT and Solve disagree on the error")
	}
}

// TestModelAMaxDTAllocs: MaxDT solves in the pool's scratch and allocates
// nothing.
func TestModelAMaxDTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	m, s := ModelA{Coeffs: PaperBlockCoeffs()}, fig4Stack(t)
	if _, err := m.MaxDT(s); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { m.MaxDT(s) }); got != 0 {
		t.Errorf("MaxDT makes %v allocations per call, want 0", got)
	}
}
