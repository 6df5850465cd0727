package fem

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// csrSolve solves an assembled system through the assembled CSR — the
// reference the matrix-free stencil the solve paths run on must match bit
// for bit. A freshly built hierarchy runs its fine level on the same CSR.
func csrSolve(t *testing.T, a *sparse.CSR, rhs []float64, g solverGrid, opt sparse.Options) ([]float64, sparse.Stats) {
	t.Helper()
	o := resolveSolver(opt, a, g)
	x, st, err := sparse.SolveCG(a, rhs, o)
	if err != nil {
		t.Fatal(err)
	}
	return x, st
}

// TestOperatorSolveBitIdenticalAxi pins the matrix-free contract end to end:
// the stencil solves the reference runs must produce bit-identical
// temperature fields and iteration counts to the same solve on the
// assembled CSR, at every worker count and under both the single-level and
// multigrid preconditioners.
func TestOperatorSolveBitIdenticalAxi(t *testing.T) {
	s := fig4(t, 10)
	res := coarse().Refine(2)
	p, err := BuildAxiProblem(s, res)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := assembleAxi(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []sparse.PrecondKind{sparse.PrecondChebyshev, sparse.PrecondMG} {
		for _, w := range []int{1, 2, 4, 8} {
			res.Precond = pc
			res.Workers = w
			sol, err := SolveStack(s, res)
			if err != nil {
				t.Fatalf("%v workers %d: %v", pc, w, err)
			}
			x, st := csrSolve(t, sys.matrix, sys.rhs, sys.grid, sparse.Options{Tol: 1e-10, Workers: w, Precond: pc})
			if sol.Stats.Iterations != st.Iterations {
				t.Fatalf("%v workers %d: stencil %d iterations, csr %d", pc, w, sol.Stats.Iterations, st.Iterations)
			}
			for j := range sol.T {
				for i := range sol.T[j] {
					if v := x[j*sys.nr+i]; sol.T[j][i] != v {
						t.Fatalf("%v workers %d: T[%d][%d] = %g, csr %g", pc, w, j, i, sol.T[j][i], v)
					}
				}
			}
		}
	}
}

// TestOperatorSolveBitIdenticalCart covers the 3-D path, including the
// anisotropic (distinct vertical conductivity) assembly and the Galerkin
// hierarchy: stencil and CSR solves must agree bitwise.
func TestOperatorSolveBitIdenticalCart(t *testing.T) {
	edges := func(n int, hi float64) []float64 {
		e, err := mesh.Uniform(0, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, aniso := range []bool{false, true} {
		p := &CartProblem{
			XEdges: edges(12, 1e-3),
			YEdges: edges(10, 1e-3),
			ZEdges: edges(16, 2e-3),
			K:      func(_, _, _ float64) float64 { return 3.0 },
			Q:      func(_, _, z float64) float64 { return 1e8 * (z + 1e-4) },
			Bottom: Fixed(0),
			Top:    Insulated(),
		}
		if aniso {
			p.KZ = func(_, _, z float64) float64 {
				if z > 1e-3 {
					return 120
				}
				return 3.0
			}
		}
		sys, err := assembleCart(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range []sparse.PrecondKind{sparse.PrecondChebyshev, sparse.PrecondMG} {
			for _, w := range []int{1, 4} {
				opt := sparse.Options{Workers: w, Precond: pc}
				sol, err := SolveCart(p, opt)
				if err != nil {
					t.Fatalf("aniso=%v %v workers %d: %v", aniso, pc, w, err)
				}
				opt.Tol = 1e-9
				x, st := csrSolve(t, sys.matrix, sys.rhs, sys.grid, opt)
				if sol.Stats.Precond != pc || sol.Stats.Iterations != st.Iterations {
					t.Fatalf("aniso=%v %v workers %d: stencil ran %v for %d iterations, csr %v for %d",
						aniso, pc, w, sol.Stats.Precond, sol.Stats.Iterations, st.Precond, st.Iterations)
				}
				for l := range sol.T {
					for j := range sol.T[l] {
						for i := range sol.T[l][j] {
							if sol.T[l][j][i] != x[(l*sys.ny+j)*sys.nx+i] {
								t.Fatalf("aniso=%v %v workers %d: T[%d][%d][%d] differs", aniso, pc, w, l, j, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestOperatorRefineCarriesSolverKnobs: Refine scales mesh counts and the
// grading exponent but must pass the solver knobs through untouched.
func TestOperatorRefineCarriesSolverKnobs(t *testing.T) {
	r := DefaultResolution()
	r.Workers = 3
	r.Precond = sparse.PrecondMG
	r2 := r.Refine(2)
	if r2.Workers != 3 || r2.Precond != sparse.PrecondMG {
		t.Fatalf("Refine dropped solver knobs: %+v", r2)
	}
	if r2.RefineFactor != 2 {
		t.Fatalf("Refine(2).RefineFactor = %d, want 2", r2.RefineFactor)
	}
	if r4 := r2.Refine(2); r4.RefineFactor != 4 || r4.Bulk != 4*r.Bulk {
		t.Fatalf("Refine(2).Refine(2) = %+v, want factor 4 and 4x counts", r4)
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
		// The first res.Bulk cells of the z mesh are the graded substrate.
		wMax, wMin := 0.0, 1e300
		for i := 0; i < res.Bulk; i++ {
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
