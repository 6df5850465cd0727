package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/materials"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

func fig4(t *testing.T, rUM float64) *stack.Stack {
	t.Helper()
	s, err := stack.Fig4Block(units.UM(rUM))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveStackEnergyConservation(t *testing.T) {
	s := fig4(t, 10)
	sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	// The integrated source must equal the stack's total power and leave
	// through the sink.
	if got, want := sol.TotalSource(), s.TotalPower(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("TotalSource = %g, want %g", got, want)
	}
	if fb := sol.FluxBalanceError(); fb > 1e-7 {
		t.Errorf("flux balance error %g", fb)
	}
}

func TestSolveStackMaxAtTop(t *testing.T) {
	s := fig4(t, 10)
	sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	tmax, _, zAt := sol.MaxT()
	if tmax <= 0 {
		t.Fatalf("max ΔT = %g", tmax)
	}
	// The hottest point must be in the upper half of the structure (heat
	// sinks at the bottom).
	top := sol.p.ZEdges[len(sol.p.ZEdges)-1]
	if zAt < top/2 {
		t.Errorf("hottest point at z=%g of %g, expected upper half", zAt, top)
	}
}

func TestSolveStackGridConvergence(t *testing.T) {
	s := fig4(t, 10)
	c, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	f, err := SolveStackWith(context.Background(), nil, s, DefaultResolution().Refine(2))
	if err != nil {
		t.Fatal(err)
	}
	tc, _, _ := c.MaxT()
	tf, _, _ := f.MaxT()
	if units.RelErr(tc, tf) > 0.05 {
		t.Errorf("coarse %g vs refined %g differ by more than 5%%", tc, tf)
	}
}

// TestSolveStackHomogeneousColumnExact: with the ILD, bond, fill and liner
// of the Fig. 4 block all made silicon the column is one material, and the
// stack mesh rule then resolves it exactly: the max ΔT of the default mesh
// equals that of the 4× refined mesh to solver precision. A scheme error
// that depends on the mesh, not on material contrast, shows up here.
func TestSolveStackHomogeneousColumnExact(t *testing.T) {
	s := fig4(t, 10)
	for i := range s.Planes {
		s.Planes[i].ILD, s.Planes[i].Bond = materials.Silicon, materials.Silicon
	}
	s.Via.Fill, s.Via.Liner = materials.Silicon, materials.Silicon
	maxDT := func(res Resolution) float64 {
		sol, err := SolveStackWith(context.Background(), nil, s, res)
		if err != nil {
			t.Fatal(err)
		}
		dt, _, _ := sol.MaxT()
		return dt
	}
	base, fine := maxDT(DefaultResolution()), maxDT(DefaultResolution().Refine(4))
	if units.RelErr(base, fine) > 1e-9 {
		t.Errorf("homogeneous column max ΔT %.15g at 1× vs %.15g at 4×, want agreement to 1e-9", base, fine)
	}
}

func TestSolveStackAgreesWithModelB(t *testing.T) {
	// The paper's central accuracy claim: the distributed model without any
	// fitting stays within ~10% of the reference over the sweeps.
	mb := core.NewModelB(100)
	for _, r := range []float64{2, 5, 10, 16} {
		s := fig4(t, r)
		sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
		if err != nil {
			t.Fatal(err)
		}
		ref, _, _ := sol.MaxT()
		b, err := mb.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if e := units.RelErr(b.MaxDT, ref); e > 0.12 {
			t.Errorf("r=%gµm: Model B %g vs FVM %g (err %.1f%%)", r, b.MaxDT, ref, 100*e)
		}
	}
}

func TestSolveStackNonMonotoneInTSi(t *testing.T) {
	// Fig. 6's headline: the reference itself shows the interior minimum.
	at := func(tsi float64) float64 {
		s, err := stack.Fig6Block(units.UM(tsi))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
		if err != nil {
			t.Fatal(err)
		}
		v, _, _ := sol.MaxT()
		return v
	}
	lo, mid, hi := at(5), at(20), at(80)
	if !(lo > mid && hi > mid) {
		t.Errorf("FVM misses non-monotonicity: ΔT(5)=%g ΔT(20)=%g ΔT(80)=%g", lo, mid, hi)
	}
}

func TestSolveStackClusterLowersTemperature(t *testing.T) {
	at := func(n int) float64 {
		s, err := stack.Fig7Block(n)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
		if err != nil {
			t.Fatal(err)
		}
		v, _, _ := sol.MaxT()
		return v
	}
	n1, n4, n16 := at(1), at(4), at(16)
	if !(n1 > n4 && n4 > n16) {
		t.Errorf("cluster effect missing in FVM: %g, %g, %g", n1, n4, n16)
	}
	// Diminishing returns.
	if n1-n4 <= n4-n16 {
		t.Errorf("no saturation: gains %g then %g", n1-n4, n4-n16)
	}
}

func TestSolveStackLinearInPower(t *testing.T) {
	s := fig4(t, 10)
	sol1, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	s2 := s.Clone()
	for i := range s2.Planes {
		s2.Planes[i].DevicePower *= 2
		s2.Planes[i].ILDPower *= 2
	}
	sol2, err := SolveStackWith(context.Background(), nil, s2, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	t1, _, _ := sol1.MaxT()
	t2, _, _ := sol2.MaxT()
	if units.RelErr(t2, 2*t1) > 1e-6 {
		t.Errorf("doubling power: %g, want %g", t2, 2*t1)
	}
}

func TestBuildAxiProblemValidation(t *testing.T) {
	s := fig4(t, 10)
	if _, err := BuildAxiProblem(s, DefaultResolution().Refine(-1)); err == nil {
		t.Error("negative refinement accepted")
	}
	bad := s.Clone()
	bad.Via.Radius = -1
	if _, err := BuildAxiProblem(bad, DefaultResolution()); err == nil {
		t.Error("invalid stack accepted")
	}
	// Via cluster so dense the vias no longer fit the footprint; per-via
	// unit cells cannot contain a via then either. (The per-cell fit check
	// π(r_n+t_L)² < A0/n is exactly the n-via occupancy check, so this is
	// rejected by validation before meshing.)
	tight := s.Clone()
	tight.Via.Count = 25
	tight.Via.LinerThickness = units.UM(3)
	tight.Via.Radius = units.UM(45)
	if _, err := BuildAxiProblem(tight, DefaultResolution()); err == nil {
		t.Error("via larger than unit cell accepted")
	}
}

func TestBuildAxiProblemRegionClassification(t *testing.T) {
	s := fig4(t, 10)
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	zTop := p.ZEdges[len(p.ZEdges)-1]
	// Deep in the first substrate: silicon, no source, no via.
	if k := p.K(units.UM(2), units.UM(100)); k != 130 {
		t.Errorf("bulk k = %g, want 130", k)
	}
	if k := p.K(units.UM(60), units.UM(100)); k != 130 {
		t.Errorf("bulk k (outside via radius) = %g", k)
	}
	// Inside the via fill above the first plane: copper.
	zMid := units.UM(500+4) + s.Planes[1].BondThickness + units.UM(1) // inside Si2
	if k := p.K(units.UM(2), zMid); k != 400 {
		t.Errorf("via fill k = %g, want 400", k)
	}
	// Inside the liner annulus at the same height: SiO2.
	if k := p.K(units.UM(10.2), zMid); k != 1.4 {
		t.Errorf("liner k = %g, want 1.4", k)
	}
	// Outside the liner: silicon.
	if k := p.K(units.UM(20), zMid); k != 130 {
		t.Errorf("surroundings k = %g, want 130", k)
	}
	// Top ILD: SiO2 with Joule source.
	zILD := zTop - s.Planes[2].ILDThickness/2
	if k := p.K(units.UM(30), zILD); k != 1.4 {
		t.Errorf("ILD k = %g, want 1.4", k)
	}
	if q := p.Q(units.UM(30), zILD); q <= 0 {
		t.Errorf("ILD source = %g, want positive", q)
	}
	// Device layer of plane 3: top 1 µm of Si3.
	zDev := zTop - s.Planes[2].ILDThickness - units.UM(0.5)
	if q := p.Q(units.UM(30), zDev); q <= 0 {
		t.Errorf("device source = %g, want positive", q)
	}
	// Silicon below the device layer: no source.
	zSi := zTop - s.Planes[2].ILDThickness - units.UM(3)
	if q := p.Q(units.UM(30), zSi); q != 0 {
		t.Errorf("substrate source = %g, want 0", q)
	}
}

// TestResolutionRefine: Refine(f) sets the mesh level, f times the base
// mesh's cells along each axis; Refine(1) is the zero value, and a factor
// below 1 does not build.
func TestResolutionRefine(t *testing.T) {
	s := fig4(t, 10)
	dims := func(res Resolution) (int, int) {
		p, err := BuildAxiProblem(s, res)
		if err != nil {
			t.Fatal(err)
		}
		return len(p.REdges) - 1, len(p.ZEdges) - 1
	}
	nr, nz := dims(DefaultResolution())
	if r2, z2 := dims(DefaultResolution().Refine(2)); r2 != 2*nr || z2 != 2*nz {
		t.Errorf("Refine(2) mesh %d×%d, want twice %d×%d", r2, z2, nr, nz)
	}
	if r := DefaultResolution().Refine(1); r != (Resolution{}) {
		t.Errorf("Refine(1) = %+v, want the zero value", r)
	}
	if r := DefaultResolution().Refine(4).Refine(2); r != DefaultResolution().Refine(2) {
		t.Errorf("Refine(4).Refine(2) = %+v, want Refine(2)", r)
	}
	if _, err := BuildAxiProblem(s, DefaultResolution().Refine(0)); err == nil {
		t.Error("refinement factor 0 accepted")
	}
}

// TestOperatorRefineCarriesSolverKnobs: Refine sets the mesh level but must
// pass the solver knobs through untouched.
func TestOperatorRefineCarriesSolverKnobs(t *testing.T) {
	r := DefaultResolution()
	r.Precond = sparse.PrecondMG
	if r2 := r.Refine(2); r2.Precond != sparse.PrecondMG || r2.factor() != 2 {
		t.Fatalf("Refine(2) = %+v, want factor 2 with the multigrid knob", r2)
	}
}

// TestRefineKeepsGradingEnvelope asserts the nested-family property behind
// deep-refinement solver scaling: refining must subdivide the same graded
// mesh, so the widest/narrowest cell ratio of the graded bulk interval stays
// (nearly) fixed instead of growing exponentially with the factor.
func TestRefineKeepsGradingEnvelope(t *testing.T) {
	s := fig4(t, 10)
	spread := func(res Resolution) float64 {
		p, err := BuildAxiProblem(s, res)
		if err != nil {
			t.Fatal(err)
		}
		// The first axialBulk·f cells of the z mesh are the graded substrate.
		wMax, wMin := 0.0, 1e300
		for i := 0; i < axialBulk*res.factor(); i++ {
			w := p.ZEdges[i+1] - p.ZEdges[i]
			if w > wMax {
				wMax = w
			}
			if w < wMin {
				wMin = w
			}
		}
		return wMax / wMin
	}
	base := spread(DefaultResolution())
	for _, f := range []int{2, 4, 8} {
		sp := spread(DefaultResolution().Refine(f))
		// Nested subdivision keeps the end-to-end envelope; the extra factor
		// below ratio^(1/f) per cell is small and bounded.
		if sp > 1.5*base {
			t.Fatalf("refine %d: bulk width spread %.3g vs base %.3g — grading is compounding", f, sp, base)
		}
	}
}
