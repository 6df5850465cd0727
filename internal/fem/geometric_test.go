package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/mg"
	"repro/internal/sparse"
)

// TestGeometricHierarchyMatchesGalerkin solves the refined axisymmetric
// reference system with the hierarchy mg.Build picks for its two axes (the
// geometric one) and with the smoothed-aggregation Galerkin hierarchy Build
// picks when the same grid is described with a third, unit axis. The
// preconditioner only shapes the Krylov space, so both must converge to the
// same temperatures, and the geometric W-cycle must need no more CG
// iterations than Galerkin — the measurement behind giving 2-axis grids the
// geometric hierarchy.
func TestGeometricHierarchyMatchesGalerkin(t *testing.T) {
	s := fig4(t, 10)
	for _, f := range []int{2, 4} {
		p, err := BuildAxiProblem(s, DefaultResolution().Refine(f))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := assembleAxi(p)
		if err != nil {
			t.Fatal(err)
		}
		solve := func(dims []int, wantGeometric bool) ([]float64, int) {
			diag, off := sys.op.Coeffs()
			a, err := sparse.NewStencilCoeffs(dims, diag, off)
			if err != nil {
				t.Fatal(err)
			}
			h, err := mg.Build(a, mg.Options{})
			if err != nil {
				t.Fatalf("refine %d dims %v: %v", f, dims, err)
			}
			if h.Geometric() != wantGeometric {
				t.Fatalf("refine %d dims %v: Geometric() = %v", f, dims, h.Geometric())
			}
			x, st, err := sparse.SolveCG(a, sys.rhs, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
			if err != nil {
				t.Fatalf("refine %d dims %v: %v", f, dims, err)
			}
			return x, st.Iterations
		}
		geo, geoIt := solve(sys.op.Dims(), true)
		gal, galIt := solve(append(append([]int(nil), sys.op.Dims()...), 1), false)
		if geoIt > galIt {
			t.Errorf("refine %d: geometric took %d CG iterations, galerkin %d", f, geoIt, galIt)
		}
		var geoMax, galMax float64
		for i := range geo {
			geoMax = math.Max(geoMax, geo[i])
			galMax = math.Max(galMax, gal[i])
		}
		if diff := math.Abs(geoMax - galMax); diff > 1e-8*galMax {
			t.Errorf("refine %d: max ΔT %g (geometric) vs %g (galerkin)", f, geoMax, galMax)
		}
	}
}

// TestGeometricContextCacheKeyedBySelection: one SolveContext serving an
// axisymmetric stack (geometric hierarchy) and a 3-D block (Galerkin
// hierarchy) in turn must keep each grid's hierarchy for that grid — the
// second round is served from the cache — and every solve must match a
// context-free solve bit for bit.
func TestGeometricContextCacheKeyedBySelection(t *testing.T) {
	s := fig4(t, 10)
	res := DefaultResolution().Refine(2)
	res.Precond = sparse.PrecondMG
	cart, err := BuildCartProblem(s, CartResolution{LateralVia: 4, LateralLiner: 1, LateralOuter: 4, AxialPerLayer: 3, AxialMin: 2, Bulk: 6})
	if err != nil {
		t.Fatal(err)
	}
	cartOpt := sparse.Options{Precond: sparse.PrecondMG}
	wantAxi, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}
	wantCart, err := SolveCart(cart, cartOpt)
	if err != nil {
		t.Fatal(err)
	}
	if wantCart.Stats.Precond != sparse.PrecondMG || wantAxi.Stats.Precond != sparse.PrecondMG {
		t.Fatalf("ran %v (axi) and %v (cart), want multigrid for both", wantAxi.Stats.Precond, wantCart.Stats.Precond)
	}

	sc := NewSolveContext()
	defer sc.Close()
	var roundHits []int64
	for round := 0; round < 2; round++ {
		var axi *AxiSolution
		var c *CartSolution
		var err, errC error
		roundHits = append(roundHits, counterDelta("fem.mg.reuse.hits", func() {
			axi, err = SolveStackWith(context.Background(), sc, s, res)
			c, errC = SolveCartWith(context.Background(), sc, cart, cartOpt)
		}))
		if err != nil || errC != nil {
			t.Fatal(err, errC)
		}
		for j := range axi.T {
			for i := range axi.T[j] {
				if axi.T[j][i] != wantAxi.T[j][i] {
					t.Fatalf("round %d: axi T[%d][%d] = %g, fresh %g", round, j, i, axi.T[j][i], wantAxi.T[j][i])
				}
			}
		}
		for l := range c.T {
			for j := range c.T[l] {
				for i := range c.T[l][j] {
					if c.T[l][j][i] != wantCart.T[l][j][i] {
						t.Fatalf("round %d: cart T[%d][%d][%d] differs from the fresh solve", round, l, j, i)
					}
				}
			}
		}
	}
	if roundHits[0] != 0 || roundHits[1] != 2 {
		t.Errorf("fem.mg.reuse.hits moved by %v per round, want [0 2]", roundHits)
	}
}
