package fem

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// flatT flattens a [iz][ir] (or deeper) temperature field for comparison.
func flatAxiT(t [][]float64) []float64 {
	var out []float64
	for _, row := range t {
		out = append(out, row...)
	}
	return out
}

func flatCartT(t [][][]float64) []float64 {
	var out []float64
	for _, plane := range t {
		for _, row := range plane {
			out = append(out, row...)
		}
	}
	return out
}

func wantSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bit difference at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestSolveContextBitIdentical is the tentpole reuse property: a radius
// sweep solved through one shared SolveContext (assembly refills, pooled
// scratch from the second point on) must reproduce the per-point solves
// through a new context each — no reuse at all — bit for bit.
func TestSolveContextBitIdentical(t *testing.T) {
	sc := NewSolveContext()
	defer sc.Close()
	var first *assembly
	for _, r := range []float64{5, 10, 20} {
		s := fig4(t, r)
		fresh := freshSolve(t, s, DefaultResolution())
		sol, err := SolveStackWith(context.Background(), sc, s, DefaultResolution())
		if err != nil {
			t.Fatalf("context solve r=%g: %v", r, err)
		}
		wantSameBits(t, "context vs new context", flatAxiT(sol.T), flatAxiT(fresh.T))
		if first == nil {
			first = sc.asm
		}
		if sc.asm != first {
			t.Fatalf("r=%g: the sweep's one shape got a new assembly instead of a refill", r)
		}
	}
}

// TestSolveContextMGReuse forces the multigrid preconditioner and checks the
// hierarchy cache: bit-identity with fresh solves throughout, the
// pointer-identical hierarchy when the operator is unchanged, and a fresh
// build when the radius (and therefore the operator values) moves.
func TestSolveContextMGReuse(t *testing.T) {
	res := DefaultResolution()
	res.Precond = sparse.PrecondMG
	solveFresh := func(r float64) []float64 { return flatAxiT(freshSolve(t, fig4(t, r), res).T) }

	sc := NewSolveContext()
	defer sc.Close()
	solveWith := func(r float64) []float64 {
		sol, err := SolveStackWith(context.Background(), sc, fig4(t, r), res)
		if err != nil {
			t.Fatalf("context MG solve r=%g: %v", r, err)
		}
		return flatAxiT(sol.T)
	}

	wantSameBits(t, "mg reuse r=10 first", solveWith(10), solveFresh(10))
	h0 := sc.h
	if h0 == nil || sc.f != nil {
		t.Fatalf("context holds hierarchy %v and factor %v, want a hierarchy only", h0, sc.f)
	}
	// Same operator again: the held hierarchy must be served untouched.
	wantSameBits(t, "mg reuse r=10 repeat", solveWith(10), solveFresh(10))
	if sc.h != h0 {
		t.Fatal("unchanged operator did not reuse the held hierarchy")
	}
	// New radius, same topology: values move, hierarchy must be rebuilt —
	// and still match the fresh build bit for bit.
	wantSameBits(t, "mg rebuild r=20", solveWith(20), solveFresh(20))
	if sc.h == h0 {
		t.Fatal("changed operator kept the stale hierarchy")
	}
}

// TestSolveContextCartBitIdentical covers the Cartesian assembly path:
// refilled patterns must reproduce fresh assembly bitwise, including the
// anisotropic (separate vertical conductivity) variant.
func TestSolveContextCartBitIdentical(t *testing.T) {
	edges := func(n int, hi float64) []float64 {
		e, err := mesh.Uniform(0, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	prob := func(k, kzTop float64) *CartProblem {
		p := &CartProblem{
			XEdges: edges(6, 1e-3),
			YEdges: edges(6, 1e-3),
			ZEdges: edges(10, 2e-3),
			K:      func(_, _, _ float64) float64 { return k },
			Q:      func(_, _, z float64) float64 { return 1e8 * z },
			Bottom: Fixed(0),
			Top:    Insulated(),
		}
		if kzTop != 0 {
			p.KZ = func(_, _, z float64) float64 {
				if z > 1e-3 {
					return kzTop
				}
				return k
			}
		}
		return p
	}

	for _, aniso := range []bool{false, true} {
		kzOf := func(kz float64) float64 {
			if !aniso {
				return 0
			}
			return kz
		}
		sc := NewSolveContext()
		for i, k := range []float64{2.5, 7.0, 0.8} {
			p := prob(k, kzOf(40*k))
			fresh := NewSolveContext()
			want, err := SolveCartWith(context.Background(), fresh, p, sparse.Options{})
			fresh.Close()
			if err != nil {
				t.Fatalf("fresh cart solve %d (aniso=%v): %v", i, aniso, err)
			}
			got, err := SolveCartWith(context.Background(), sc, p, sparse.Options{})
			if err != nil {
				t.Fatalf("context cart solve %d (aniso=%v): %v", i, aniso, err)
			}
			wantSameBits(t, "cart context vs fresh", flatCartT(got.T), flatCartT(want.T))
		}
		sc.Close()
	}
}

// TestSolveContextTopologyChange solves two different mesh sizes through one
// context: each change of topology re-keys it to the new shape with that
// shape's assembly, the idle one or a new one, and every solve keeps
// matching a fresh one, so a context survives resolution changes
// mid-stream.
func TestSolveContextTopologyChange(t *testing.T) {
	sc := NewSolveContext()
	defer sc.Close()
	resA := DefaultResolution()
	resB := DefaultResolution().Refine(2)
	var last *assembly
	for _, res := range []Resolution{resA, resB, resA} {
		s := fig4(t, 10)
		want := freshSolve(t, s, res)
		got, err := SolveStackWith(context.Background(), sc, s, res)
		if err != nil {
			t.Fatal(err)
		}
		wantSameBits(t, "topology change", flatAxiT(got.T), flatAxiT(want.T))
		if sc.asm == last || sc.key.d0 != len(got.RCenters) || sc.key.d1 != len(got.ZCenters) {
			t.Fatalf("context holds shape %+v with the previous assembly %v, want a new one of %d×%d", sc.key, sc.asm == last, len(got.RCenters), len(got.ZCenters))
		}
		last = sc.asm
	}
}

// TestContextSizeEstimate checks SolveContext.size, which the idle list's
// byte bound counts, against the live heap a context holds after a solve:
// a direct and a multigrid context on the 2× axisymmetric mesh and on chip
// grids.
func TestContextSizeEstimate(t *testing.T) {
	t.Cleanup(asideIdle())
	s := fig4(t, 10)
	cart := func(nx, nz int) *CartProblem {
		x, _ := mesh.Uniform(0, 1.5e-3, nx)
		z, _ := mesh.Uniform(0, 2e-4, nz)
		return &CartProblem{
			XEdges: x, YEdges: x, ZEdges: z,
			K:      func(_, _, _ float64) float64 { return 130 },
			Q:      func(_, _, _ float64) float64 { return 1e9 },
			Bottom: Fixed(0), Top: Insulated(),
		}
	}
	axi := func(p sparse.PrecondKind) func(*SolveContext) error {
		return func(sc *SolveContext) error {
			res := DefaultResolution().Refine(2)
			res.Precond = p
			_, err := SolveStackWith(context.Background(), sc, s, res)
			return err
		}
	}
	cartSolve := func(p *CartProblem) func(*SolveContext) error {
		return func(sc *SolveContext) error {
			_, err := SolveCartWith(context.Background(), sc, p, sparse.Options{Tol: 1e-8})
			return err
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		grid  string
		solve func(*SolveContext) error
	}{
		{"axi 2x direct", axi(sparse.PrecondDefault)},
		{"axi 2x multigrid", axi(sparse.PrecondMG)},
		{"cart 12x12x35 direct", cartSolve(cart(12, 35))},
		{"cart 16x16x35 multigrid", cartSolve(cart(16, 35))},
	} {
		emptyIdle(t) // the case allocates its own
		before := live()
		sc := NewSolveContext()
		if err := tc.solve(sc); err != nil {
			t.Fatalf("%s: %v", tc.grid, err)
		}
		held := live() - before
		if est := int64(sc.size()); est < held*85/100 || est > held*115/100 {
			t.Errorf("%s: size estimate %d bytes, the context holds %d", tc.grid, est, held)
		}
		sc.Close()
	}
}
