package fem

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// Regression: the stack-to-problem closures used to return silently-plausible
// fallbacks (k = 1, q = 0) when z missed the layer table; now they return NaN
// so assembly surfaces the bookkeeping bug as an error.
func TestProblemClosuresNaNOutsideLayerTable(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	axi, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	zOut := axi.ZEdges[len(axi.ZEdges)-1] * 10
	if !math.IsNaN(axi.K(0, zOut)) || !math.IsNaN(axi.Q(0, zOut)) {
		t.Error("axi closures did not return NaN outside the layer table")
	}
	cart, err := BuildCartProblem(s, DefaultCartResolution())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(cart.K(0, 0, zOut)) || !math.IsNaN(cart.Q(0, 0, zOut)) {
		t.Error("cart closures did not return NaN outside the layer table")
	}
}

// Assembly must reject non-finite source densities the way it already rejects
// non-finite conductivities, in both geometries.
func TestAssemblyRejectsNonFiniteSource(t *testing.T) {
	r, _ := mesh.Uniform(0, 1e-4, 3)
	z, _ := mesh.Uniform(0, 1e-3, 4)
	axi := &AxiProblem{
		REdges: r, ZEdges: z,
		K:      func(_, _ float64) float64 { return 100 },
		Q:      func(_, _ float64) float64 { return math.NaN() },
		Bottom: Fixed(0), Top: Insulated(), Outer: Insulated(),
	}
	if _, err := SolveAxiWith(context.Background(), nil, axi, sparse.Options{}); err == nil || !strings.Contains(err.Error(), "source density") {
		t.Errorf("axi assembly accepted NaN source: %v", err)
	}
	x, _ := mesh.Uniform(0, 1e-4, 3)
	cart := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return 100 },
		Q:      func(_, _, _ float64) float64 { return math.Inf(1) },
		Bottom: Fixed(0), Top: Insulated(),
	}
	if _, err := solveCart(cart, sparse.Options{}); err == nil || !strings.Contains(err.Error(), "source density") {
		t.Errorf("cart assembly accepted Inf source: %v", err)
	}
}

// Regression: the transient solver used to discard the per-step CG statistics.
// Multigrid is forced: the grid rule would solve this grid direct.
func TestTransientAccumulatesStats(t *testing.T) {
	r, _ := mesh.Uniform(0, 1e-4, 24)
	z, _ := mesh.Uniform(0, 1e-3, 20)
	p := &AxiProblem{
		REdges: r, ZEdges: z,
		K:      func(_, _ float64) float64 { return 10 },
		Q:      func(_, _ float64) float64 { return 1e7 },
		Bottom: Fixed(0), Top: Insulated(), Outer: Insulated(),
	}
	const steps = 5
	tr, err := solveAxiTransient(p, func(_, _ float64) float64 { return 2e6 }, 1e-3, steps, sparse.Options{Tol: 1e-10, Precond: sparse.PrecondMG})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Iterations < steps {
		t.Errorf("aggregated iterations %d over %d steps", tr.Stats.Iterations, steps)
	}
	if tr.Stats.Wall <= 0 {
		t.Errorf("aggregated wall time %v not populated", tr.Stats.Wall)
	}
	if tr.Stats.Precond != sparse.PrecondMG {
		t.Errorf("multigrid did not run: %+v", tr.Stats)
	}
	if tr.Final.Stats != tr.Stats {
		t.Errorf("Final.Stats %+v differs from aggregate %+v", tr.Final.Stats, tr.Stats)
	}
}

func TestSolveStackCtxCancelled(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveStackWith(ctx, nil, s, DefaultResolution()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A Precond-only Resolution solves the base mesh with that preconditioner.
func TestReferenceModelPrecondOnlyResolution(t *testing.T) {
	s := fig4(t, 10)
	r, err := ReferenceModel{Res: Resolution{Precond: sparse.PrecondMG}}.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReferenceModel{}.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Unknowns != base.Unknowns || r.Solver.Precond != sparse.PrecondMG || !base.Solver.Direct {
		t.Errorf("Precond-only model: %d unknowns by %v, base %d unknowns by %v", r.Unknowns, r.Solver, base.Unknowns, base.Solver)
	}
}
