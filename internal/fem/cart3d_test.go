package fem

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

func TestCartUniformSlabWithSource(t *testing.T) {
	// Same 1-D analytic check as the axisymmetric solver: T(z) =
	// (q/k)(Hz - z²/2) for uniform source, bottom fixed, top adiabatic.
	const k, q, h = 4.0, 2e6, 1e-3
	x, _ := mesh.Uniform(0, 5e-4, 3)
	z, _ := mesh.Uniform(0, h, 50)
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return k },
		Q:      func(_, _, _ float64) float64 { return q },
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := SolveCart(p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := q / k * h * h / 2
	if got := sol.MaxT(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("max T = %g, want %g", got, want)
	}
	for l, zz := range sol.ZCenters {
		wantT := q / k * (h*zz - zz*zz/2)
		if got := sol.T[l][1][1]; math.Abs(got-wantT) > 0.01*want {
			t.Fatalf("T(z=%g) = %g, want %g", zz, got, wantT)
		}
	}
}

// TestCartLayeredSlabSeriesResistance is the closed-form check of the 3-D
// emitter's vertical couplings: a laterally uniform two-layer slab with a
// vertical conductivity KZ distinct from the lateral K, heated in its top
// cell plane and held at the sink below. All heat flows down through the
// cell-center-to-center resistances in series, so every cell-center
// temperature is exactly (Q/A)·R(z), with R the summed h/KZ of the cells
// below plus half the cell's own — the finite-volume discretization of a
// layered slab carries no truncation error. A vertical face that read K
// instead of KZ, or a misplaced boundary conductance, breaks the match.
func TestCartLayeredSlabSeriesResistance(t *testing.T) {
	const (
		t1, kz1 = 1e-3, 120.0 // bottom layer
		t2, kz2 = 0.4e-3, 3.0 // top layer, source cells included
		kLat    = 1.0         // lateral conductivity: carries no heat here
		tSrc    = 2e-5        // one cell plane of source at the top
		qv      = 1e9         // W/m³ in the source plane
		side    = 5e-4
	)
	x, _ := mesh.Uniform(0, side, 3)
	z, err := mesh.Line(0, []mesh.Interval{
		{Hi: t1, Cells: 8},
		{Hi: t1 + t2 - tSrc, Cells: 6},
		{Hi: t1 + t2, Cells: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K: func(_, _, _ float64) float64 { return kLat },
		KZ: func(_, _, zz float64) float64 {
			if zz < t1 {
				return kz1
			}
			return kz2
		},
		Q: func(_, _, zz float64) float64 {
			if zz > t1+t2-tSrc {
				return qv
			}
			return 0
		},
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := SolveCart(p, sparse.Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	flux := qv * tSrc // W/m² crossing every plane below the source
	var below float64 // Σ h/KZ of the cells under the current one
	for l, zz := range sol.ZCenters {
		h := z[l+1] - z[l]
		kz := p.KZ(0, 0, zz)
		want := flux * (below + h/2/kz)
		below += h / kz
		for j := range sol.T[l] {
			for i, got := range sol.T[l][j] {
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("T[%d][%d][%d] = %.15g, series resistance gives %.15g", l, j, i, got, want)
				}
			}
		}
	}
	wantMax := flux * (t1/kz1 + (t2-tSrc/2)/kz2)
	if got := sol.MaxT(); math.Abs(got-wantMax) > 1e-9*wantMax {
		t.Fatalf("max ΔT = %.15g, want %.15g", got, wantMax)
	}
}

func TestCartTotalSource(t *testing.T) {
	x, _ := mesh.Uniform(0, 1e-3, 4)
	z, _ := mesh.Uniform(0, 2e-3, 8)
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return 1 },
		Q:      func(_, _, _ float64) float64 { return 1e6 },
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := SolveCart(p, sparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6 * 1e-3 * 1e-3 * 2e-3
	if got := sol.TotalSource(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("TotalSource = %g, want %g", got, want)
	}
}

func TestCartValidation(t *testing.T) {
	x, _ := mesh.Uniform(0, 1, 2)
	good := &CartProblem{
		XEdges: x, YEdges: x, ZEdges: x,
		K:      func(_, _, _ float64) float64 { return 1 },
		Bottom: Fixed(0), Top: Insulated(),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *good
	bad.K = nil
	if _, err := SolveCart(&bad, sparse.Options{}); err == nil {
		t.Error("nil K accepted")
	}
	bad2 := *good
	bad2.Bottom, bad2.Top = Insulated(), Insulated()
	if _, err := SolveCart(&bad2, sparse.Options{}); err == nil {
		t.Error("no Dirichlet face accepted")
	}
	bad3 := *good
	bad3.XEdges = []float64{1, 0}
	if _, err := SolveCart(&bad3, sparse.Options{}); err == nil {
		t.Error("decreasing edges accepted")
	}
	bad4 := *good
	bad4.K = func(_, _, _ float64) float64 { return 0 }
	if _, err := SolveCart(&bad4, sparse.Options{}); err == nil {
		t.Error("zero conductivity accepted")
	}
}

// TestAxisymmetricReductionValidatedIn3D is the key substitution check of
// this reproduction: the true 3-D square block with a cylindrical via and
// its equal-area axisymmetric reduction must agree on the maximum
// temperature rise within a few percent.
func TestAxisymmetricReductionValidatedIn3D(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D cross-validation is slow")
	}
	// Thick liner (Fig. 5 at t_L = 3 µm): the Cartesian grid resolves the
	// liner ring well, so the two solvers must agree tightly.
	s, err := stack.Fig5Block(units.UM(3))
	if err != nil {
		t.Fatal(err)
	}
	axi, err := SolveStack(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	axiMax, _, _ := axi.MaxT()

	p3, err := BuildCartProblem(s, DefaultCartResolution())
	if err != nil {
		t.Fatal(err)
	}
	sol3, err := SolveCart(p3, sparse.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	checkCartMG(t, "Fig. 5", sol3)
	cartMax := sol3.MaxT()
	if e := units.RelErr(axiMax, cartMax); e > 0.05 {
		t.Errorf("axisymmetric %g vs 3-D %g differ by %.1f%%", axiMax, cartMax, 100*e)
	}
	// Power bookkeeping across both problem builders.
	if e := units.RelErr(sol3.TotalSource(), s.TotalPower()); e > 1e-9 {
		t.Errorf("3-D source %g vs stack power %g", sol3.TotalSource(), s.TotalPower())
	}

	// Thin liner (Fig. 4 at t_L = 0.5 µm): the staircase ring resolves less
	// cleanly; require agreement within 10%.
	s4, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	axi4, err := SolveStack(s4, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	axi4Max, _, _ := axi4.MaxT()
	p4, err := BuildCartProblem(s4, DefaultCartResolution())
	if err != nil {
		t.Fatal(err)
	}
	sol4, err := SolveCart(p4, sparse.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	checkCartMG(t, "Fig. 4", sol4)
	if e := units.RelErr(axi4Max, sol4.MaxT()); e > 0.10 {
		t.Errorf("thin-liner axisymmetric %g vs 3-D %g differ by %.1f%%", axi4Max, sol4.MaxT(), 100*e)
	}
}

// checkCartMG asserts that a 3-D block solve ran multigrid — the Galerkin
// hierarchy mg.Build gives 3-axis grids — and converged well inside the
// 25-iteration band (21 on Fig. 4, 17 on Fig. 5). The geometric hierarchy
// needs 160 on Fig. 4 and stalls on Fig. 5, which is why 3-D grids do not
// get it.
func checkCartMG(t *testing.T, what string, sol *CartSolution) {
	t.Helper()
	if sol.Stats.Precond != sparse.PrecondMG {
		t.Errorf("%s 3-D solve ran %v, want multigrid", what, sol.Stats.Precond)
	}
	if sol.Stats.Iterations > 25 {
		t.Errorf("%s 3-D solve took %d CG iterations, want <= 25", what, sol.Stats.Iterations)
	}
}

func TestBuildCartProblemRejectsClusters(t *testing.T) {
	s, err := stack.Fig7Block(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCartProblem(s, DefaultCartResolution()); err == nil {
		t.Error("cluster accepted by the 3-D block builder")
	}
}

func TestBuildCartProblemRejectsBadResolution(t *testing.T) {
	s, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCartProblem(s, CartResolution{}); err == nil {
		t.Error("zero resolution accepted")
	}
}
