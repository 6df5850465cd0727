package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestHalfBandwidth(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		want int
	}{
		{[]int{1}, 0}, {[]int{9}, 1}, {[]int{7, 5}, 7}, {[]int{1, 6}, 1}, {[]int{6, 1}, 1},
		{[]int{4, 3, 5}, 12}, {[]int{1, 4, 5}, 4}, {[]int{3, 4, 1}, 3}, {[]int{1, 1, 7}, 1},
	} {
		st := gridStencil(tc.dims, 1)
		if got := st.HalfBandwidth(); got != tc.want {
			t.Errorf("%v: half-bandwidth %d, want %d", tc.dims, got, tc.want)
		}
		if got := CholeskyLen(st); got != st.Rows()*(tc.want+1) {
			t.Errorf("%v: CholeskyLen %d, want %d", tc.dims, got, st.Rows()*(tc.want+1))
		}
	}
}

// directSolve factors st and solves it for b, failing the test on error.
func directSolve(t *testing.T, st *Stencil, b []float64) ([]float64, Stats) {
	t.Helper()
	f, err := FactorCholesky(st, make([]float64, CholeskyLen(st)))
	if err != nil {
		t.Fatal(err)
	}
	x, stats, err := SolveCholesky(context.Background(), st, f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return x, stats
}

// The factor solves every grid shape to rounding, and Stats reports the
// solve: direct, no iterations, its half-bandwidth and the true residual.
func TestCholeskySolvesStencils(t *testing.T) {
	for k, dims := range append(stencilDims, []int{1}, []int{12, 9, 4}) {
		st := gridStencil(dims, int64(k))
		b := randomVec(st.Rows(), int64(100+k))
		x, stats := directSolve(t, st, b)
		r := make([]float64, len(b))
		st.SpanResidual(x, b, r, 0, len(b))
		if res := norm2(r) / norm2(b); res > 1e-14 || stats.Residual != res {
			t.Errorf("%v: residual %g, Stats %g", dims, res, stats.Residual)
		}
		if !stats.Direct || stats.Iterations != 0 || stats.Bandwidth != st.HalfBandwidth() || stats.Reused {
			t.Errorf("%v: stats %+v", dims, stats)
		}
		if s := stats.String(); !strings.Contains(s, "direct") || !strings.Contains(s, "new factor") {
			t.Errorf("%v: stats string %q", dims, s)
		}
	}
}

// Property: on random SPD grids of random shape the direct solve reaches a
// relative residual of 1e-12 and agrees with CG to its tolerance.
func TestCholeskyMatchesCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(3))
		for i := range dims {
			dims[i] = 1 + rng.Intn(8)
		}
		st := gridStencil(dims, seed)
		b := randomVec(st.Rows(), seed+1)
		fac, err := FactorCholesky(st, make([]float64, CholeskyLen(st)))
		if err != nil {
			return false
		}
		x, stats, err := SolveCholesky(context.Background(), st, fac, b, nil)
		if err != nil || stats.Residual > 1e-12 {
			return false
		}
		xc, _, err := SolveCGCtx(context.Background(), st, b, Options{Tol: 1e-13})
		if err != nil {
			return false
		}
		for i := range x {
			if d := x[i] - xc[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Refactoring a changed operator into the buffer of an earlier factor gives
// the bits a fresh factor gives.
func TestCholeskyRefactorSameBuffer(t *testing.T) {
	first, second := gridStencil([]int{6, 5, 3}, 7), gridStencil([]int{6, 5, 3}, 8)
	buf := make([]float64, CholeskyLen(first))
	if _, err := FactorCholesky(first, buf); err != nil {
		t.Fatal(err)
	}
	again, err := FactorCholesky(second, buf)
	if err != nil {
		t.Fatal(err)
	}
	b := randomVec(second.Rows(), 3)
	got, _, err := SolveCholesky(context.Background(), second, again, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := directSolve(t, second, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refactored solve differs at %d: %x vs %x", i, got[i], want[i])
		}
	}
}

// An indefinite operator fails at the first non-positive pivot with an
// error that wraps linalg.ErrNotSPD and names the row.
func TestCholeskyNotSPD(t *testing.T) {
	// A 3×2 grid with unit couplings: row 4's diagonal (0.5) is smaller than
	// what its two earlier neighbors take from it.
	diag := []float64{4, 4, 4, 4, 0.5, 4}
	ox := []float64{-1, -1, 0, -1, -1, 0}
	oy := []float64{-1, -1, -1, 0, 0, 0}
	st, err := NewStencilCoeffs([]int{3, 2}, diag, [3][]float64{ox, oy})
	if err != nil {
		t.Fatal(err)
	}
	_, err = FactorCholesky(st, make([]float64, CholeskyLen(st)))
	if !errors.Is(err, linalg.ErrNotSPD) {
		t.Fatalf("err = %v, want linalg.ErrNotSPD", err)
	}
	if !strings.Contains(err.Error(), "row 4") {
		t.Errorf("error %q does not name row 4", err)
	}
}

func TestCholeskyRejectsShortBufferAndMismatch(t *testing.T) {
	st := gridStencil([]int{4, 3}, 2)
	if _, err := FactorCholesky(st, make([]float64, CholeskyLen(st)-1)); err == nil {
		t.Error("short buffer accepted")
	}
	f, err := FactorCholesky(st, make([]float64, CholeskyLen(st)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveCholesky(context.Background(), st, f, make([]float64, 5), nil); err == nil {
		t.Error("rhs of the wrong length accepted")
	}
	other := gridStencil([]int{5, 3}, 2)
	if _, _, err := SolveCholesky(context.Background(), other, f, make([]float64, other.Rows()), nil); err == nil {
		t.Error("factor of another operator accepted")
	}
}

func TestSolveCholeskyCancelled(t *testing.T) {
	st := gridStencil([]int{4, 3}, 2)
	f, err := FactorCholesky(st, make([]float64, CholeskyLen(st)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SolveCholesky(ctx, st, f, randomVec(st.Rows(), 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FactorCholesky fills the band straight from the coefficient arrays with
// exactly the bits Band.Add leaves from Each's entries — a −0 coupling
// included — and so factors it bit for bit the same.
func TestCholeskyFillMatchesEach(t *testing.T) {
	for k, dims := range append(stencilDims, []int{1}, []int{12, 9, 4}, []int{1, 4, 5}, []int{3, 1, 4}) {
		st := gridStencil(dims, int64(k))
		_, off := st.Coeffs()
		for d := range off {
			if len(off[d]) > 1 {
				off[d][0] = math.Copysign(0, -1)
			}
		}
		want := linalg.NewBand(st.Rows(), st.HalfBandwidth(), nil)
		st.Each(func(i, j int, v float64) {
			if j <= i {
				want.Add(i, j, v)
			}
		})
		if err := want.Factor(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		got, err := FactorCholesky(st, make([]float64, CholeskyLen(st)))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := range st.Rows() {
			g, w := got.Row(i), want.Row(i)
			for j := range w {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%v: factor row %d entry %d is %v, want %v", dims, i, j, g[j], w[j])
				}
			}
		}
	}
}
