package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/mg"
	"repro/internal/sparse"
)

// TestGeometricHierarchyMatchesPlaneHierarchy solves the refined
// axisymmetric reference system with the hierarchy mg.Build picks for its
// two axes (full coarsening, alternating lines, W-cycle) and with the
// z-semicoarsened plane hierarchy Build picks when the same grid is
// described with a unit middle axis, each plane then being one radial line.
// The preconditioner only shapes the Krylov space, so both must converge to
// the same temperatures, and the 2-axis hierarchy must need no more CG
// iterations — the measurement behind keeping it for 2-axis grids.
func TestGeometricHierarchyMatchesPlaneHierarchy(t *testing.T) {
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
		solve := func(dims []int, off [3][]float64) ([]float64, int) {
			diag, _ := sys.op.Coeffs()
			a, err := sparse.NewStencilCoeffs(dims, diag, off)
			if err != nil {
				t.Fatal(err)
			}
			h, err := mg.Build(a)
			if err != nil {
				t.Fatalf("refine %d dims %v: %v", f, dims, err)
			}
			x, st, err := sparse.SolveCGCtx(context.Background(), a, sys.rhs, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
			if err != nil {
				t.Fatalf("refine %d dims %v: %v", f, dims, err)
			}
			return x, st.Iterations
		}
		_, off := sys.op.Coeffs()
		dims := sys.op.Dims()
		geo, geoIt := solve(dims, off)
		pl, plIt := solve([]int{dims[0], 1, dims[1]}, [3][]float64{off[0], nil, off[1]})
		t.Logf("refine %d: %d CG iterations (2-axis), %d (planes)", f, geoIt, plIt)
		if geoIt > plIt {
			t.Errorf("refine %d: 2-axis hierarchy took %d CG iterations, plane hierarchy %d", f, geoIt, plIt)
		}
		var geoMax, plMax float64
		for i := range geo {
			geoMax = math.Max(geoMax, geo[i])
			plMax = math.Max(plMax, pl[i])
		}
		if diff := math.Abs(geoMax - plMax); diff > 1e-8*plMax {
			t.Errorf("refine %d: max ΔT %g (2-axis) vs %g (planes)", f, geoMax, plMax)
		}
	}
}

// TestGeometricContextCacheKeyedBySelection: nil-context solves of an
// axisymmetric stack (fully coarsened hierarchy) and a 3-D block (plane
// hierarchy) in turn must keep each grid's hierarchy for that grid — each
// shape has its own idle context, so the second round is served from them —
// and every solve must match a solve through a new context bit for bit.
func TestGeometricContextCacheKeyedBySelection(t *testing.T) {
	s := fig4(t, 10)
	res := DefaultResolution().Refine(2)
	res.Precond = sparse.PrecondMG
	cart, err := BuildCartProblem(s, CartResolution{LateralVia: 4, LateralLiner: 1, LateralOuter: 4, AxialPerLayer: 3, AxialMin: 2, Bulk: 6})
	if err != nil {
		t.Fatal(err)
	}
	cartOpt := sparse.Options{Precond: sparse.PrecondMG}
	wantAxi := freshSolve(t, s, res)
	fresh := NewSolveContext()
	wantCart, err := SolveCartWith(context.Background(), fresh, cart, cartOpt)
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wantCart.Stats.Precond != sparse.PrecondMG || wantAxi.Stats.Precond != sparse.PrecondMG {
		t.Fatalf("ran %v (axi) and %v (cart), want multigrid for both", wantAxi.Stats.Precond, wantCart.Stats.Precond)
	}

	emptyIdle(t)
	var roundHits []int64
	for round := 0; round < 2; round++ {
		var axi *AxiSolution
		var c *CartSolution
		var err, errC error
		roundHits = append(roundHits, counterDelta("fem.mg.reuse.hits", func() {
			axi, err = SolveStackWith(context.Background(), nil, s, res)
			c, errC = SolveCartWith(context.Background(), nil, cart, cartOpt)
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
