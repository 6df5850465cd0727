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

func TestAlmostEqual(t *testing.T) {
	for _, tc := range []struct {
		a, b, rtol float64
		want       bool
	}{
		{1, 1, 1e-9, true},
		{0, 0, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		{-2e-3, -2e-3 * (1 + 1e-12), 1e-9, true},
		{1e-300, 2e-300, 1e-9, false},
		{0, 1e-12, 1e-9, false},
	} {
		if got := almostEqual(tc.a, tc.b, tc.rtol); got != tc.want {
			t.Errorf("almostEqual(%g, %g, %g) = %v, want %v", tc.a, tc.b, tc.rtol, got, tc.want)
		}
	}
}

// Regression: the stack-to-problem closures used to return silently-plausible
// fallbacks (k = 1, q = 0) when z missed the layer table; now they return NaN
// so assembly surfaces the bookkeeping bug as an error.
func TestProblemClosuresNaNOutsideLayerTable(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	axi, err := BuildAxiProblem(s, coarse())
	if err != nil {
		t.Fatal(err)
	}
	zOut := axi.ZEdges[len(axi.ZEdges)-1] * 10
	if !math.IsNaN(axi.K(0, zOut)) || !math.IsNaN(axi.Q(0, zOut)) || !math.IsNaN(axi.Cap(0, zOut)) {
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
	if _, err := SolveAxi(axi, sparse.Options{}); err == nil || !strings.Contains(err.Error(), "source density") {
		t.Errorf("axi assembly accepted NaN source: %v", err)
	}
	x, _ := mesh.Uniform(0, 1e-4, 3)
	cart := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return 100 },
		Q:      func(_, _, _ float64) float64 { return math.Inf(1) },
		Bottom: Fixed(0), Top: Insulated(),
	}
	if _, err := SolveCart(cart, sparse.Options{}); err == nil || !strings.Contains(err.Error(), "source density") {
		t.Errorf("cart assembly accepted Inf source: %v", err)
	}
}

// Regression: SolveAxiTransient used to discard the per-step CG statistics.
func TestTransientAccumulatesStats(t *testing.T) {
	r, _ := mesh.Uniform(0, 1e-4, 3)
	z, _ := mesh.Uniform(0, 1e-3, 20)
	p := &AxiProblem{
		REdges: r, ZEdges: z,
		K:      func(_, _ float64) float64 { return 10 },
		Cap:    func(_, _ float64) float64 { return 2e6 },
		Q:      func(_, _ float64) float64 { return 1e7 },
		Bottom: Fixed(0), Top: Insulated(), Outer: Insulated(),
	}
	const steps = 5
	tr, err := SolveAxiTransient(p, 1e-3, steps, sparse.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Iterations < steps {
		t.Errorf("aggregated iterations %d over %d steps", tr.Stats.Iterations, steps)
	}
	if tr.Stats.Wall <= 0 {
		t.Errorf("aggregated wall time %v not populated", tr.Stats.Wall)
	}
	if tr.Stats.Precond == sparse.PrecondDefault {
		t.Errorf("preconditioner not resolved: %+v", tr.Stats)
	}
	if tr.Final.Stats != tr.Stats {
		t.Errorf("Final.Stats %+v differs from aggregate %+v", tr.Final.Stats, tr.Stats)
	}
}

// Property: on the repository's real FVM systems — axisymmetric and 3-D
// Cartesian — the parallel CG solve is bit-identical to the sequential one
// for any worker count when the preconditioner is pinned.
func TestSolveCGWorkersBitIdenticalOnFEMSystems(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	axiProb, err := BuildAxiProblem(s, coarse())
	if err != nil {
		t.Fatal(err)
	}
	axiSys, err := assembleAxi(axiProb)
	if err != nil {
		t.Fatal(err)
	}
	cartProb, err := BuildCartProblem(s, CartResolution{
		LateralVia: 4, LateralLiner: 1, LateralOuter: 4, AxialPerLayer: 2, AxialMin: 1, Bulk: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cartSys, err := assembleCart(cartProb)
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name string
		op   *sparse.Stencil
		rhs  []float64
	}{
		{"axi", axiSys.op, axiSys.rhs},
		{"cart3d", cartSys.op, cartSys.rhs},
	}
	for _, sys := range systems {
		for _, pc := range []sparse.PrecondKind{sparse.PrecondJacobi, sparse.PrecondChebyshev} {
			opt := sparse.Options{Tol: 1e-10, MaxIter: 100000, Precond: pc}
			opt.Workers = 1
			seq, _, err := sparse.SolveCG(sys.op, sys.rhs, opt)
			if err != nil {
				t.Fatalf("%s/%v sequential: %v", sys.name, pc, err)
			}
			for _, w := range []int{2, 4, 8} {
				opt.Workers = w
				par, _, err := sparse.SolveCG(sys.op, sys.rhs, opt)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", sys.name, pc, w, err)
				}
				for i := range seq {
					if par[i] != seq[i] {
						t.Fatalf("%s/%v workers=%d: x[%d] = %x, want %x",
							sys.name, pc, w, i, math.Float64bits(par[i]), math.Float64bits(seq[i]))
					}
				}
			}
		}
	}
}

// The full stack solve must produce the same field with Workers set once the
// preconditioner is pinned, and the default parallel path must still converge
// to the same answer within tolerance.
func TestSolveStackWithWorkers(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	res := coarse()
	seq, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}
	res.Workers = 4
	par, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Workers != 4 {
		t.Errorf("parallel solve reports %d workers", par.Stats.Workers)
	}
	if par.Stats.Precond != sparse.PrecondChebyshev {
		t.Errorf("parallel default precond %v, want chebyshev", par.Stats.Precond)
	}
	if seq.Stats.Precond != sparse.PrecondSSOR {
		t.Errorf("sequential default precond %v, want ssor", seq.Stats.Precond)
	}
	maxSeq, _, _ := seq.MaxT()
	maxPar, _, _ := par.MaxT()
	if d := math.Abs(maxSeq-maxPar) / maxSeq; d > 1e-7 {
		t.Errorf("worker solve ΔT %g differs from sequential %g (rel %g)", maxPar, maxSeq, d)
	}
}

func TestSolveStackCtxCancelled(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveStackCtx(ctx, s, coarse()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A Workers-only Resolution keeps the default mesh.
func TestReferenceModelWorkersOnlyResolution(t *testing.T) {
	m := ReferenceModel{Res: Resolution{Workers: 3}}
	got := m.resolution()
	want := DefaultResolution()
	want.Workers = 3
	if got != want {
		t.Errorf("resolution() = %+v, want %+v", got, want)
	}
	if r := (ReferenceModel{}).resolution(); r != DefaultResolution() {
		t.Errorf("zero model resolution = %+v", r)
	}
}
