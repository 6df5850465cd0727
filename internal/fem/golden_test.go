package fem

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite the solve golden file")

const solveGoldenPath = "testdata/solve_golden.txt"

// fieldHash hashes the exact float64 bits of a solution field.
func fieldHash(x []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCase is one pinned solve: run returns the CG iteration count and the
// solution field the solve produced.
type goldenCase struct {
	name string
	run  func() (int, []float64, error)
}

// goldenLine formats a solve result as it appears in the golden file.
func goldenLine(name string, iters int, field []float64) string {
	return fmt.Sprintf("%s %d %s", name, iters, fieldHash(field))
}

// checkGolden runs the cases in order and compares each "name iters hash"
// line with the line of the same name in the golden file. With -update it
// rewrites those lines in place (appending new names) and keeps the lines
// other tests own.
func checkGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	var got []string
	for _, c := range cases {
		iters, field, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenLine(c.name, iters, field))
	}
	data, err := os.ReadFile(solveGoldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var lines []string
	if len(data) > 0 {
		lines = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	index := make(map[string]int, len(lines))
	for i, l := range lines {
		index[strings.Fields(l)[0]] = i
	}
	for i, c := range cases {
		j, ok := index[c.name]
		switch {
		case *update && ok:
			lines[j] = got[i]
		case *update:
			index[c.name] = len(lines)
			lines = append(lines, got[i])
		case !ok:
			t.Errorf("%s: no golden line (run with -update to add it)", c.name)
		case lines[j] != got[i]:
			t.Errorf("solve changed:\n got  %s\n want %s", got[i], lines[j])
		}
	}
	if *update {
		if err := os.WriteFile(solveGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveGolden pins every reference-solver path to the exact bits it
// produced when the golden file was written: the temperature field and the
// CG iteration count (0 for a direct solve) of axisymmetric solves by the
// banded Cholesky factor and by multigrid, the 3-D block under the plane
// hierarchy and the factor, a transient integration, and SolveContext
// re-solves that hit the hierarchy or factor cache, or rebuild the hierarchy
// or refactor into the cached storage. Refactors of assembly, the operator
// or the hierarchy must leave every line unchanged; regenerate with -update
// only for an intended numerical change.
func TestSolveGolden(t *testing.T) {
	axi := func(res Resolution, pc sparse.PrecondKind) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			res.Precond = pc
			sol, err := SolveStackWith(context.Background(), nil, fig4(t, 10), res)
			if err != nil {
				return 0, nil, err
			}
			if sol.Stats.Direct != (pc == sparse.PrecondDefault) {
				t.Errorf("%v: stats %v", pc, sol.Stats)
			}
			return sol.Stats.Iterations, flatAxiT(sol.T), nil
		}
	}
	// Coarser lateral meshes than DefaultCartResolution keep the 3-D solves
	// cheap under -race, and put the direct case under the grid rule's
	// budget.
	cart := func(lateral int, pc sparse.PrecondKind) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			p, err := BuildCartProblem(fig4(t, 10), CartResolution{LateralVia: lateral, LateralLiner: 1, LateralOuter: lateral, AxialPerLayer: 3, AxialMin: 2, Bulk: 6})
			if err != nil {
				return 0, nil, err
			}
			sol, err := solveCart(p, sparse.Options{Tol: 1e-9, Precond: pc})
			if err != nil {
				return 0, nil, err
			}
			if sol.Stats.Direct != (pc == sparse.PrecondDefault) {
				t.Errorf("3-D %v: stats %v", pc, sol.Stats)
			}
			return sol.Stats.Iterations, flatCartT(sol.T), nil
		}
	}
	transient := func() (int, []float64, error) {
		s := fig4(t, 10)
		p, err := BuildAxiProblem(s, DefaultResolution().Refine(2))
		if err != nil {
			return 0, nil, err
		}
		tr, err := solveAxiTransient(p, stackCap(t, s), 1e-4, 5, sparse.Options{Tol: 1e-11, Precond: sparse.PrecondMG})
		if err != nil {
			return 0, nil, err
		}
		return tr.Stats.Iterations, append(flatAxiT(tr.Final.T), tr.MaxT...), nil
	}
	// The context cases share one SolveContext, in order: a first solve
	// (fresh build), the same operator again (hierarchy cache hit) and a new
	// radius on the same topology (rebuild).
	sc := NewSolveContext()
	defer sc.Close()
	viaContext := func(rUM float64) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			res := DefaultResolution().Refine(2)
			res.Precond = sparse.PrecondMG
			sol, err := SolveStackWith(context.Background(), sc, fig4(t, rUM), res)
			if err != nil {
				return 0, nil, err
			}
			return sol.Stats.Iterations, flatAxiT(sol.T), nil
		}
	}
	checkGolden(t, []goldenCase{
		{"axi-1x-direct", axi(DefaultResolution(), sparse.PrecondDefault)},
		{"axi-2x-mg-w1", axi(DefaultResolution().Refine(2), sparse.PrecondMG)},
		{"cart-fig4-mg", cart(4, sparse.PrecondMG)},
		{"cart-fig4-direct", cart(2, sparse.PrecondDefault)},
		{"axi-2x-transient-mg", transient},
		{"ctx-first-r10", viaContext(10)},
		{"ctx-cache-hit-r10", viaContext(10)},
		{"ctx-rebuild-r20", viaContext(20)},
	})
}

// TestDirectFactorCacheGolden pins the banded Cholesky factor cache at the
// default mesh, in the order of the ctx-* lines: a first solve through a
// context (factor), the same operator again (served from cache, no
// factorization) and a new radius on the same topology (refactored into the
// cached storage). Each field must also hash-match a solve of the same
// stack through a new context.
func TestDirectFactorCacheGolden(t *testing.T) {
	sc := NewSolveContext()
	defer sc.Close()
	var cases []goldenCase
	for _, c := range []struct {
		name           string
		rUM            float64
		factors, reuse int64
	}{{"ctx-direct-first-r10", 10, 1, 0}, {"ctx-direct-hit-r10", 10, 0, 1}, {"ctx-direct-refactor-r20", 20, 1, 0}} {
		cases = append(cases, goldenCase{c.name, func() (int, []float64, error) {
			fresh := freshSolve(t, fig4(t, c.rUM), DefaultResolution())
			var sol *AxiSolution
			var err error
			reuse := counterDelta("fem.direct.reuse.hits", func() {
				factors := counterDelta("fem.direct.factors", func() {
					sol, err = SolveStackWith(context.Background(), sc, fig4(t, c.rUM), DefaultResolution())
				})
				if factors != c.factors {
					t.Errorf("%s: %d factorizations, want %d", c.name, factors, c.factors)
				}
			})
			if err != nil {
				return 0, nil, err
			}
			if reuse != c.reuse || sol.Stats.Reused != (c.reuse == 1) || (sol.Stats.Factor > 0) != (c.reuse == 0) || !sol.Stats.Direct {
				t.Errorf("%s: %d cache hits, stats %v", c.name, reuse, sol.Stats)
			}
			field := flatAxiT(sol.T)
			if got, want := fieldHash(field), fieldHash(flatAxiT(fresh.T)); got != want {
				t.Errorf("%s: context solve %s, new-context solve %s", c.name, got, want)
			}
			return sol.Stats.Iterations, field, nil
		}})
	}
	checkGolden(t, cases)
}

// TestOperatorSolveBitIdenticalAxi pins the matrix-free axisymmetric
// multigrid solve end to end: its temperature field and iteration count
// must match the golden line written when the solve still ran against an
// assembled CSR.
func TestOperatorSolveBitIdenticalAxi(t *testing.T) {
	res := DefaultResolution().Refine(2)
	res.Precond = sparse.PrecondMG
	checkGolden(t, []goldenCase{{"op-axi-2x-multigrid-w1", func() (int, []float64, error) {
		sol, err := SolveStackWith(context.Background(), nil, fig4(t, 10), res)
		if err != nil {
			return 0, nil, err
		}
		return sol.Stats.Iterations, flatAxiT(sol.T), nil
	}}})
}

// TestOperatorSolveBitIdenticalCart covers the 3-D path, including the
// anisotropic (distinct vertical conductivity) assembly, under both the
// plane hierarchy and the banded Cholesky factor the grid rule picks for
// this 12×10×16 grid: each solve must run the method it was asked for and
// match its golden line bit for bit.
func TestOperatorSolveBitIdenticalCart(t *testing.T) {
	edges := func(n int, hi float64) []float64 {
		e, err := mesh.Uniform(0, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var cases []goldenCase
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
		kind := "iso"
		if aniso {
			kind = "aniso"
			p.KZ = func(_, _, z float64) float64 {
				if z > 1e-3 {
					return 120
				}
				return 3.0
			}
		}
		for _, c := range []struct {
			name string
			pc   sparse.PrecondKind
		}{{"multigrid-w1", sparse.PrecondMG}, {"direct", sparse.PrecondDefault}} {
			pc := c.pc
			cases = append(cases, goldenCase{fmt.Sprintf("op-cart-%s-%s", kind, c.name), func() (int, []float64, error) {
				sol, err := solveCart(p, sparse.Options{Precond: pc})
				if err != nil {
					return 0, nil, err
				}
				if sol.Stats.Precond != pc || sol.Stats.Direct != (pc == sparse.PrecondDefault) {
					t.Errorf("%s %v: ran %v", kind, pc, sol.Stats)
				}
				return sol.Stats.Iterations, flatCartT(sol.T), nil
			}})
		}
	}
	checkGolden(t, cases)
}
