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
// CG iteration count of axisymmetric solves under each single-level
// preconditioner and under multigrid at two worker counts, the 3-D block
// under the Galerkin hierarchy and Chebyshev, a transient integration, and
// SolveContext re-solves that hit the hierarchy cache or rebuild through a
// recycled arena. Refactors of assembly, the operator or the hierarchy must
// leave every line unchanged; regenerate with -update only for an intended
// numerical change.
func TestSolveGolden(t *testing.T) {
	axi := func(res Resolution, pc sparse.PrecondKind, workers int) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			res.Precond, res.Workers = pc, workers
			sol, err := SolveStack(fig4(t, 10), res)
			if err != nil {
				return 0, nil, err
			}
			return sol.Stats.Iterations, flatAxiT(sol.T), nil
		}
	}
	cart := func(pc sparse.PrecondKind) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			// A coarser lateral mesh than DefaultCartResolution keeps the
			// Galerkin build (seconds at the default) cheap under -race.
			p, err := BuildCartProblem(fig4(t, 10), CartResolution{LateralVia: 4, LateralLiner: 1, LateralOuter: 4, AxialPerLayer: 3, AxialMin: 2, Bulk: 6})
			if err != nil {
				return 0, nil, err
			}
			sol, err := SolveCart(p, sparse.Options{Tol: 1e-9, Precond: pc})
			if err != nil {
				return 0, nil, err
			}
			return sol.Stats.Iterations, flatCartT(sol.T), nil
		}
	}
	transient := func() (int, []float64, error) {
		p, err := BuildAxiProblem(fig4(t, 10), coarse().Refine(2))
		if err != nil {
			return 0, nil, err
		}
		tr, err := SolveAxiTransient(p, 1e-4, 5, sparse.Options{Tol: 1e-11, Precond: sparse.PrecondMG})
		if err != nil {
			return 0, nil, err
		}
		return tr.Stats.Iterations, append(flatAxiT(tr.Final.T), tr.MaxT...), nil
	}
	// The context cases share one SolveContext, in order: a first solve
	// (fresh build), the same operator again (hierarchy cache hit) and a new
	// radius on the same topology (recycled rebuild).
	sc := NewSolveContext()
	defer sc.Close()
	viaContext := func(rUM float64) func() (int, []float64, error) {
		return func() (int, []float64, error) {
			res := coarse().Refine(2)
			res.Precond = sparse.PrecondMG
			sol, err := SolveStackWith(context.Background(), sc, fig4(t, rUM), res)
			if err != nil {
				return 0, nil, err
			}
			return sol.Stats.Iterations, flatAxiT(sol.T), nil
		}
	}
	checkGolden(t, []goldenCase{
		{"axi-coarse-none", axi(coarse(), sparse.PrecondNone, 1)},
		{"axi-coarse-jacobi", axi(coarse(), sparse.PrecondJacobi, 1)},
		{"axi-coarse-ssor", axi(coarse(), sparse.PrecondSSOR, 1)},
		{"axi-coarse-chebyshev", axi(coarse(), sparse.PrecondChebyshev, 1)},
		{"axi-2x-mg-w1", axi(coarse().Refine(2), sparse.PrecondMG, 1)},
		{"axi-2x-mg-w4", axi(coarse().Refine(2), sparse.PrecondMG, 4)},
		{"cart-fig4-mg", cart(sparse.PrecondMG)},
		{"cart-fig4-chebyshev", cart(sparse.PrecondChebyshev)},
		{"axi-2x-transient-mg", transient},
		{"ctx-first-r10", viaContext(10)},
		{"ctx-cache-hit-r10", viaContext(10)},
		{"ctx-rebuild-r20", viaContext(20)},
	})
}

// TestOperatorSolveBitIdenticalAxi pins the matrix-free axisymmetric solve
// end to end: under the single-level Chebyshev and the multigrid
// preconditioners, every worker count must produce the temperature field and
// iteration count of the serial solve bit for bit, and each must match the
// golden line written when the solve still ran against an assembled CSR.
func TestOperatorSolveBitIdenticalAxi(t *testing.T) {
	s := fig4(t, 10)
	var cases []goldenCase
	for _, pc := range []sparse.PrecondKind{sparse.PrecondChebyshev, sparse.PrecondMG} {
		var serialIters int
		var serial []float64
		for _, w := range []int{1, 2, 4, 8} {
			res := coarse().Refine(2)
			res.Precond, res.Workers = pc, w
			cases = append(cases, goldenCase{fmt.Sprintf("op-axi-2x-%v-w%d", pc, w), func() (int, []float64, error) {
				sol, err := SolveStack(s, res)
				if err != nil {
					return 0, nil, err
				}
				x := flatAxiT(sol.T)
				if w == 1 {
					serialIters, serial = sol.Stats.Iterations, x
				} else if sol.Stats.Iterations != serialIters || fieldHash(x) != fieldHash(serial) {
					t.Errorf("%v workers %d: %d iterations, field %s; serial %d iterations, field %s",
						pc, w, sol.Stats.Iterations, fieldHash(x), serialIters, fieldHash(serial))
				}
				return sol.Stats.Iterations, x, nil
			}})
		}
	}
	checkGolden(t, cases)
}

// TestOperatorSolveBitIdenticalCart covers the 3-D path, including the
// anisotropic (distinct vertical conductivity) assembly and the Galerkin
// hierarchy: each solve must run the preconditioner it was asked for and
// match its golden line, written when the solve still ran against an
// assembled CSR, bit for bit.
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
		for _, pc := range []sparse.PrecondKind{sparse.PrecondChebyshev, sparse.PrecondMG} {
			for _, w := range []int{1, 4} {
				cases = append(cases, goldenCase{fmt.Sprintf("op-cart-%s-%v-w%d", kind, pc, w), func() (int, []float64, error) {
					sol, err := SolveCart(p, sparse.Options{Workers: w, Precond: pc})
					if err != nil {
						return 0, nil, err
					}
					if sol.Stats.Precond != pc {
						t.Errorf("%s %v workers %d: ran %v", kind, pc, w, sol.Stats.Precond)
					}
					return sol.Stats.Iterations, flatCartT(sol.T), nil
				}})
			}
		}
	}
	checkGolden(t, cases)
}
