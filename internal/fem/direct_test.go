package fem

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

// TestDirectMatchesMGProperty draws seeded Fig. 4 radii, Fig. 5 liner
// thicknesses and Fig. 6 substrate thicknesses at 1× and 2× the default
// mesh. On each, the direct solve the grid rule picks and forced
// multigrid-preconditioned CG must agree on max ΔT to 1e-9 relative, and
// the direct solve must be backward stable: its componentwise backward
// error at most 1e-14, and the residual ‖b − A·x‖/‖b‖ Stats reports within
// 4× of ε·‖|A|·|x|‖/‖b‖, the floor below which evaluating b − A·x in double
// precision cannot resolve it (1e-11 to 1e-10 on these grids: large
// conductances times temperatures cancel to the small source terms).
func TestDirectMatchesMGProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	families := []struct {
		name   string
		block  func(float64) (*stack.Stack, error)
		lo, hi float64 // µm
	}{
		{"fig4 r", stack.Fig4Block, 2, 20},
		{"fig5 tL", stack.Fig5Block, 0.5, 4},
		{"fig6 tSi", stack.Fig6Block, 5, 80},
	}
	samples := 4
	if testing.Short() {
		samples = 1
	}
	for _, fam := range families {
		for i := 0; i < samples; i++ {
			x := fam.lo + (fam.hi-fam.lo)*rng.Float64()
			s, err := fam.block(units.UM(x))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []int{1, 2} {
				res := DefaultResolution().Refine(f)
				direct, err := SolveStackWith(context.Background(), nil, s, res)
				if err != nil {
					t.Fatalf("%s = %.3f µm at %d×: %v", fam.name, x, f, err)
				}
				res.Precond = sparse.PrecondMG
				mg, err := SolveStackWith(context.Background(), nil, s, res)
				if err != nil {
					t.Fatalf("%s = %.3f µm at %d× (mg): %v", fam.name, x, f, err)
				}
				if !direct.Stats.Direct || mg.Stats.Direct {
					t.Fatalf("%s = %.3f µm at %d×: ran %v and %v", fam.name, x, f, direct.Stats, mg.Stats)
				}
				floor, cw := backwardErrors(t, s, DefaultResolution().Refine(f), flatAxiT(direct.T))
				if r := direct.Stats.Residual; !(r <= 4*floor) || !(cw <= 1e-14) {
					t.Errorf("%s = %.3f µm at %d×: direct residual %.3g (rounding floor %.3g), componentwise backward error %.3g",
						fam.name, x, f, r, floor, cw)
				}
				d, _, _ := direct.MaxT()
				m, _, _ := mg.MaxT()
				if e := math.Abs(d-m) / m; !(e <= 1e-9) {
					t.Errorf("%s = %.3f µm at %d×: max ΔT direct %.12g, multigrid %.12g (%.2g relative)", fam.name, x, f, d, m, e)
				}
			}
		}
	}
}

// backwardErrors assembles s at res and returns, for the solution x, the
// rounding floor ε·‖|A|·|x|‖/‖b‖ of its relative residual and its
// componentwise backward error max_i |b − A·x|_i / (|A|·|x| + |b|)_i.
func backwardErrors(t *testing.T, s *stack.Stack, res Resolution, x []float64) (floor, componentwise float64) {
	t.Helper()
	p, err := BuildAxiProblem(s, res)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := assembleAxi(p)
	if err != nil {
		t.Fatal(err)
	}
	abs := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		out := make([]float64, len(v))
		for i, e := range v {
			out[i] = math.Abs(e)
		}
		return out
	}
	diag, off := sys.op.Coeffs()
	absA, err := sparse.NewStencilCoeffs(sys.op.Dims(), abs(diag), [3][]float64{abs(off[0]), abs(off[1]), abs(off[2])})
	if err != nil {
		t.Fatal(err)
	}
	n := len(x)
	ax, r := absA.MulVec(abs(x), nil), make([]float64, n)
	sys.op.SpanResidual(x, sys.rhs, r, 0, n)
	var axNorm, bNorm float64
	for i := range x {
		axNorm += ax[i] * ax[i]
		bNorm += sys.rhs[i] * sys.rhs[i]
		componentwise = math.Max(componentwise, math.Abs(r[i])/(ax[i]+math.Abs(sys.rhs[i])))
	}
	const eps = 0x1p-53
	return eps * math.Sqrt(axNorm/bNorm), componentwise
}

// Factor storage lives in one process-wide idle list: contexts take it
// from there and hand it back on Close, on re-keying and after a
// nil-context solve. Solves running on several goroutines at once, through
// idle or caller-owned contexts, must never share a band, so each must
// match the same solve run alone bit for bit.
func TestConcurrentDirectSolvesShareIdleList(t *testing.T) {
	radii := []float64{3, 8, 13, 18}
	want := make([]string, len(radii))
	for i, r := range radii {
		sol, err := SolveStackWith(context.Background(), nil, fig4(t, r), DefaultResolution())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fieldHash(flatAxiT(sol.T))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(radii)
				s, err := stack.Fig4Block(units.UM(radii[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var sc *SolveContext
				if k%2 == 1 {
					sc = NewSolveContext()
				}
				sol, err := SolveStackWith(context.Background(), sc, s, DefaultResolution())
				sc.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if got := fieldHash(flatAxiT(sol.T)); got != want[i] {
					t.Errorf("goroutine %d, r = %g µm: field %s, alone %s", g, radii[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
