package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
	"repro/internal/stack"
)

// TestMGIterationsMeshIndependent asserts the point of the multigrid
// preconditioner: CG iteration counts stay within a constant band as the
// reference grid refines, instead of growing with the mesh. The geometric
// hierarchy the axisymmetric grid gets takes 13–14 iterations from 1× to
// 8×; 16 is the band.
func TestMGIterationsMeshIndependent(t *testing.T) {
	s := fig4(t, 10)
	for _, f := range []int{1, 2, 4, 8} {
		res := DefaultResolution().Refine(f)
		res.Precond = sparse.PrecondMG
		sol, err := SolveStackWith(context.Background(), nil, s, res)
		if err != nil {
			t.Fatalf("refine %d: %v", f, err)
		}
		if sol.Stats.Precond != sparse.PrecondMG {
			t.Fatalf("refine %d: ran %v, want multigrid", f, sol.Stats.Precond)
		}
		if sol.Stats.Levels < 2 {
			t.Fatalf("refine %d: hierarchy has %d levels", f, sol.Stats.Levels)
		}
		if sol.Stats.Iterations > 16 {
			t.Errorf("refine %d: %d CG iterations, want <= 16 (mesh-independent band)",
				f, sol.Stats.Iterations)
		}
	}
}

// TestMGAutoSelection pins the one grid rule on the grids this repository
// solves: the banded LDLᵀ factor where n·b² < directBudget (the 1× to 4×
// axisymmetric Fig. 4 meshes, the 6×6×26 and 12×12×35 chip power-map
// grids) and multigrid above it (the 16×16×35 chip grid, the 8× mesh). The
// chip grids are built here with their dims, since the rule reads only the
// shape. The 8× mesh is only built, not solved: its shape is checked
// against the budget, and TestMGIterationsMeshIndependent solves it.
func TestMGAutoSelection(t *testing.T) {
	s := fig4(t, 10)
	cartOf := func(nx, nz int) *CartProblem {
		x, _ := mesh.Uniform(0, 1.5e-3, nx)
		z, _ := mesh.Uniform(0, 2e-4, nz)
		return &CartProblem{
			XEdges: x, YEdges: x, ZEdges: z,
			K:      func(_, _, _ float64) float64 { return 130 },
			Q:      func(_, _, _ float64) float64 { return 1e9 },
			Bottom: Fixed(0), Top: Insulated(),
		}
	}
	for _, tc := range []struct {
		grid   string
		solve  func() (sparse.Stats, error) // nil: check the shape only
		n, b   int
		direct bool
	}{
		{"axi 1x", axiStats(s, 1), 1458, 27, true},
		{"axi 2x", axiStats(s, 2), 5832, 54, true},
		{"axi 3x", axiStats(s, 3), 13122, 81, true},
		{"axi 4x", axiStats(s, 4), 23328, 108, true},
		{"axi 8x", nil, 93312, 216, false},
		{"cart 6x6x26", cartStats(cartOf(6, 26)), 936, 36, true},
		{"cart 12x12x35", cartStats(cartOf(12, 35)), 5040, 144, true},
		{"cart 16x16x35", cartStats(cartOf(16, 35)), 8960, 256, false},
	} {
		if nb2 := float64(tc.n) * float64(tc.b) * float64(tc.b); (nb2 < directBudget) != tc.direct {
			t.Fatalf("%s: n·b² = %.3g does not probe the %.3g budget as intended", tc.grid, nb2, float64(directBudget))
		}
		if tc.solve == nil {
			p, err := BuildAxiProblem(s, DefaultResolution().Refine(8))
			if err != nil {
				t.Fatalf("%s: %v", tc.grid, err)
			}
			if nr, nz := len(p.REdges)-1, len(p.ZEdges)-1; nr*nz != tc.n || nr != tc.b {
				t.Errorf("%s: %d×%d cells, want n = %d with half-bandwidth %d", tc.grid, nr, nz, tc.n, tc.b)
			}
			continue
		}
		st, err := tc.solve()
		if err != nil {
			t.Fatalf("%s: %v", tc.grid, err)
		}
		if st.Direct != tc.direct || (st.Precond == sparse.PrecondMG) == tc.direct {
			t.Errorf("%s: ran %v, want direct = %v", tc.grid, st, tc.direct)
		}
		if tc.direct && (st.Bandwidth != tc.b || st.Iterations != 0) {
			t.Errorf("%s: stats %v, want half-bandwidth %d and no iterations", tc.grid, st, tc.b)
		}
	}
}

// axiStats solves s at f times the default mesh under the default rule.
func axiStats(s *stack.Stack, f int) func() (sparse.Stats, error) {
	return func() (sparse.Stats, error) {
		sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution().Refine(f))
		if err != nil {
			return sparse.Stats{}, err
		}
		return sol.Stats, nil
	}
}

// cartStats solves p under the default rule.
func cartStats(p *CartProblem) func() (sparse.Stats, error) {
	return func() (sparse.Stats, error) {
		sol, err := solveCart(p, sparse.Options{Tol: 1e-8})
		if err != nil {
			return sparse.Stats{}, err
		}
		return sol.Stats, nil
	}
}

// TestMGSmallestStackCoarsens: every mesh the builders make coarsens, so a
// forced multigrid solve never meets a grid too small for a hierarchy. The
// smallest is the base mesh of the smallest stack Validate accepts: two
// planes, no via extension and no device layer, every layer but the bulk
// thinner than 2 µm, so each meshes to the thin count (mesh.Layers).
func TestMGSmallestStackCoarsens(t *testing.T) {
	s := fig4(t, 10)
	s.Planes = s.Planes[:2]
	s.Via.Extension = 0
	for i := range s.Planes {
		p := &s.Planes[i]
		p.DeviceLayerThickness, p.ILDThickness = 0, 1e-6
		if i > 0 {
			p.SiThickness, p.BondThickness = 1e-6, 1e-6
		}
	}
	res := DefaultResolution()
	res.Precond = sparse.PrecondMG
	sol, err := SolveStackWith(context.Background(), nil, s, res)
	if err != nil {
		t.Fatal(err)
	}
	if nr, nz := len(sol.RCenters), len(sol.ZCenters); nr != radialVia+radialLiner+radialOuter || nz != axialBulk+4*axialThin {
		t.Fatalf("mesh %d×%d is not the smallest the builder makes", nr, nz)
	}
	if sol.Stats.Precond != sparse.PrecondMG || sol.Stats.Levels < 2 {
		t.Errorf("smallest stack ran %v, want a multigrid hierarchy of at least 2 levels", sol.Stats)
	}
}

// TestTransientMGMatchesDirect runs the same implicit integration under
// multigrid and under the banded Cholesky factor the grid rule picks. The
// hierarchy, or the factor, is built once on the step matrix and reused
// across steps; both runs must land on the same trajectory.
func TestTransientMGMatchesDirect(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, DefaultResolution().Refine(2))
	if err != nil {
		t.Fatal(err)
	}
	const dt, steps = 1e-4, 20
	mgTr, err := solveAxiTransient(p, stackCap(t, s), dt, steps, sparse.Options{Tol: 1e-11, Precond: sparse.PrecondMG})
	if err != nil {
		t.Fatal(err)
	}
	if mgTr.Stats.Precond != sparse.PrecondMG || mgTr.Stats.Levels < 2 {
		t.Fatalf("transient stats %v: multigrid did not run", mgTr.Stats)
	}
	var directTr *axiTransient
	factors := counterDelta("fem.direct.factors", func() {
		directTr, err = solveAxiTransient(p, stackCap(t, s), dt, steps, sparse.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !directTr.Stats.Direct || directTr.Stats.Iterations != 0 || factors != 1 {
		t.Fatalf("transient stats %v after %d factorizations: want one factor serving every step", directTr.Stats, factors)
	}
	for k, got := range mgTr.MaxT {
		if want := directTr.MaxT[k]; math.Abs(got-want) > 1e-8 {
			t.Errorf("step %d max ΔT: MG %g vs direct %g", k+1, got, want)
		}
	}
}
