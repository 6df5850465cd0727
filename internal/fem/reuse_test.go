package fem

import (
	"context"
	"math"
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
// scratch from the second point on) must reproduce the fresh per-point
// solves bit for bit, and so must a context with NoReuse set.
func TestSolveContextBitIdentical(t *testing.T) {
	radii := []float64{5, 10, 20}
	fresh := make([][]float64, len(radii))
	for i, r := range radii {
		s := fig4(t, r)
		sol, err := SolveStack(s, coarse())
		if err != nil {
			t.Fatalf("fresh solve r=%g: %v", r, err)
		}
		fresh[i] = flatAxiT(sol.T)
	}

	for _, noReuse := range []bool{false, true} {
		sc := NewSolveContext()
		sc.NoReuse = noReuse
		defer sc.Close()
		for i, r := range radii {
			s := fig4(t, r)
			sol, err := SolveStackWith(context.Background(), sc, s, coarse())
			if err != nil {
				t.Fatalf("context solve (noReuse=%v) r=%g: %v", noReuse, r, err)
			}
			wantSameBits(t, "context vs fresh", flatAxiT(sol.T), fresh[i])
		}
		if wantPat := 1; !noReuse && len(sc.assemblies) != wantPat {
			t.Fatalf("context cached %d assemblies, want %d (one topology for the whole sweep)", len(sc.assemblies), wantPat)
		}
		if noReuse && len(sc.assemblies) != 0 {
			t.Fatalf("NoReuse context cached %d assemblies, want 0", len(sc.assemblies))
		}
	}
}

// TestSolveContextMGReuse forces the multigrid preconditioner and checks the
// hierarchy cache's three tiers: bit-identity with fresh solves throughout,
// pointer-identical hierarchy when the operator is unchanged, and a rebuild
// when the radius (and therefore the operator values) moves.
func TestSolveContextMGReuse(t *testing.T) {
	res := coarse()
	res.Precond = sparse.PrecondMG
	solveFresh := func(r float64) []float64 {
		sol, err := SolveStack(fig4(t, r), res)
		if err != nil {
			t.Fatalf("fresh MG solve r=%g: %v", r, err)
		}
		return flatAxiT(sol.T)
	}

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
	if len(sc.hier) != 1 {
		t.Fatalf("hierarchy cache holds %d entries, want 1", len(sc.hier))
	}
	var h0 interface{ Levels() int }
	for _, e := range sc.hier {
		h0 = e.h
	}
	// Same operator again: the cached hierarchy must be served untouched.
	wantSameBits(t, "mg reuse r=10 repeat", solveWith(10), solveFresh(10))
	for _, e := range sc.hier {
		if e.h != h0 {
			t.Fatal("unchanged operator did not reuse the cached hierarchy")
		}
	}
	// New radius, same topology: values move, hierarchy must be rebuilt —
	// and still match the fresh build bit for bit.
	wantSameBits(t, "mg rebuild r=20", solveWith(20), solveFresh(20))
	for _, e := range sc.hier {
		if e.h == h0 {
			t.Fatal("changed operator kept the stale hierarchy")
		}
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
			want, err := SolveCart(p, sparse.Options{})
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
// context: each topology gets its own pattern and both keep matching fresh
// solves, so a context survives resolution changes mid-stream.
func TestSolveContextTopologyChange(t *testing.T) {
	sc := NewSolveContext()
	defer sc.Close()
	resA := coarse()
	resB := coarse()
	resB.RadialOuter += 3
	resB.Bulk += 2
	for _, res := range []Resolution{resA, resB, resA} {
		s := fig4(t, 10)
		want, err := SolveStack(s, res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveStackWith(context.Background(), sc, s, res)
		if err != nil {
			t.Fatal(err)
		}
		wantSameBits(t, "topology change", flatAxiT(got.T), flatAxiT(want.T))
	}
	if len(sc.assemblies) != 2 {
		t.Fatalf("context cached %d assemblies, want 2 (one per topology)", len(sc.assemblies))
	}
}

// TestWarmStartDeterministicAndConvergent: warm starting changes the CG
// iterate sequence, so it is not bit-identical to cold solves — but it must
// be deterministic (two identical warm sweeps agree bitwise) and still
// converge to the same solution within the solver tolerance.
func TestWarmStartDeterministicAndConvergent(t *testing.T) {
	radii := []float64{5, 8, 12, 20}
	runWarm := func() [][]float64 {
		sc := NewSolveContext()
		sc.WarmStart = true
		defer sc.Close()
		out := make([][]float64, len(radii))
		for i, r := range radii {
			sol, err := SolveStackWith(context.Background(), sc, fig4(t, r), coarse())
			if err != nil {
				t.Fatalf("warm solve r=%g: %v", r, err)
			}
			out[i] = flatAxiT(sol.T)
		}
		return out
	}
	a, b := runWarm(), runWarm()
	for i := range a {
		wantSameBits(t, "warm determinism", a[i], b[i])
	}
	for i, r := range radii {
		sol, err := SolveStack(fig4(t, r), coarse())
		if err != nil {
			t.Fatal(err)
		}
		cold := flatAxiT(sol.T)
		for j := range cold {
			denom := math.Max(math.Abs(cold[j]), 1)
			if math.Abs(a[i][j]-cold[j])/denom > 1e-6 {
				t.Fatalf("warm vs cold r=%g diverged at %d: %v vs %v", r, j, a[i][j], cold[j])
			}
		}
	}
}
