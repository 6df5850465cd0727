package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomBandedSystem returns a random diagonally dominant symmetric matrix
// of half-bandwidth b as a Band and as a dense Matrix, with a right-hand
// side.
func randomBandedSystem(rng *rand.Rand, n, b int) (*Band, *Matrix, []float64) {
	bd := NewBand(n, b, nil)
	dense := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-b); j < i; j++ {
			v := rng.Float64()*2 - 1
			bd.Add(i, j, v)
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(dense.At(i, j))
		}
		d := rowSum + 0.5 + rng.Float64()
		bd.Add(i, i, d)
		dense.Set(i, i, d)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return bd, dense, rhs
}

// solveBand factors m in place and returns its solution for rhs.
func solveBand(m *Band, rhs []float64) ([]float64, error) {
	if err := m.Factor(); err != nil {
		return nil, err
	}
	x := make([]float64, len(rhs))
	m.Solve(x, rhs)
	return x, nil
}

func TestBandedSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		b := rng.Intn(5)
		bd, dense, rhs := randomBandedSystem(rng, n, b)
		xb, err := solveBand(bd, rhs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		xd, err := Solve(dense, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xb {
			if math.Abs(xb[i]-xd[i]) > 1e-9*(1+math.Abs(xd[i])) {
				t.Fatalf("trial %d (n=%d b=%d): x[%d] = %g vs dense %g", trial, n, b, i, xb[i], xd[i])
			}
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for %s", what)
		}
	}()
	f()
}

func TestBandedOutsideBandPanics(t *testing.T) {
	bd := NewBand(5, 1, nil)
	mustPanic(t, "out-of-band Add", func() { bd.Add(0, 3, 1) })
	mustPanic(t, "out-of-band Add below the diagonal", func() { bd.Add(3, 0, 1) })
}

func TestBandedIndexPanics(t *testing.T) {
	bd := NewBand(3, 1, nil)
	mustPanic(t, "row past the end", func() { bd.Add(3, 2, 1) })
	mustPanic(t, "negative column", func() { bd.Add(0, -1, 1) })
}

// A singular band is not positive definite: its factorization fails with
// ErrNotSPD and names the row of the zero pivot.
func TestBandedSingular(t *testing.T) {
	bd := NewBand(2, 0, nil)
	bd.Add(0, 0, 1)
	// Row 1 left zero.
	if _, err := solveBand(bd, []float64{1, 1}); !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "row 1 ") {
		t.Fatalf("err = %v, want ErrNotSPD at row 1", err)
	}
	empty := NewBand(2, 1, nil)
	if _, err := solveBand(empty, []float64{1, 1}); !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "row 0 ") {
		t.Fatalf("zero matrix err = %v", err)
	}
}

func TestBandedDimensionChecks(t *testing.T) {
	mustPanic(t, "NewBand(0, 1)", func() { NewBand(0, 1, nil) })
	mustPanic(t, "NewBand(3, -1)", func() { NewBand(3, -1, nil) })
	mustPanic(t, "a buffer shorter than n·(b+1)", func() { NewBand(3, 1, make([]float64, 5)) })
	// Bandwidth clamps to n-1.
	wide := NewBand(3, 10, nil)
	if wide.N() != 3 || wide.Bandwidth() != 2 {
		t.Errorf("n, bandwidth = %d, %d", wide.N(), wide.Bandwidth())
	}
	// A band in an earlier band's buffer starts from zero.
	buf := []float64{9, 9, 9, 9, 9, 9, 9}
	again := NewBand(3, 1, buf)
	again.Add(0, 0, 2)
	again.Add(1, 1, 2)
	again.Add(2, 2, 2)
	x, err := solveBand(again, []float64{2, 4, 6})
	if err != nil || x[0] != 1 || x[1] != 2 || x[2] != 3 || buf[6] != 9 {
		t.Errorf("reused buffer: x = %v, err %v, buf %v", x, err, buf)
	}
}

func TestBandedResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := rng.Intn(4)
		bd, dense, rhs := randomBandedSystem(rng, n, b)
		x, err := solveBand(bd, rhs)
		if err != nil {
			return false
		}
		ax := dense.MulVec(x)
		for i := range ax {
			if math.Abs(ax[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBandedTridiagonalAgreesWithThomas(t *testing.T) {
	n := 30
	bd := NewBand(n, 1, nil)
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
		bd.Add(i, i, 4)
		if i > 0 {
			lower[i] = -1 - 0.2*float64(i%2)
			upper[i-1] = lower[i]
			bd.Add(i, i-1, lower[i])
		}
		rhs[i] = float64(i%5) - 2
	}
	xb, err := solveBand(bd, rhs)
	if err != nil {
		t.Fatal(err)
	}
	xt, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xb {
		if math.Abs(xb[i]-xt[i]) > 1e-10 {
			t.Fatalf("banded vs Thomas at %d: %g vs %g", i, xb[i], xt[i])
		}
	}
}

func TestSolveTridiag(t *testing.T) {
	// System:
	// [ 2 -1  0] [x0]   [1]
	// [-1  2 -1] [x1] = [0]
	// [ 0 -1  2] [x2]   [1]
	lower := []float64{0, -1, -1}
	diag := []float64{2, 2, 2}
	upper := []float64{-1, -1, 0}
	rhs := []float64{1, 0, 1}
	x, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveTridiagMatchesDense(t *testing.T) {
	n := 25
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		diag[i] = 4 + float64(i%3)
		a.Set(i, i, diag[i])
		if i > 0 {
			lower[i] = -1 - 0.1*float64(i%2)
			a.Set(i, i-1, lower[i])
		}
		if i < n-1 {
			upper[i] = -1.5
			a.Set(i, i+1, upper[i])
		}
		rhs[i] = float64(i) - 3
	}
	x, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := Solve(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xd[i]) > 1e-10 {
			t.Fatalf("mismatch at %d: %g vs %g", i, x[i], xd[i])
		}
	}
}

func TestSolveTridiagErrors(t *testing.T) {
	if _, err := solveTridiag(nil, nil, nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := solveTridiag([]float64{0}, []float64{1, 2}, []float64{0}, []float64{1}); err == nil {
		t.Error("inconsistent lengths accepted")
	}
	if _, err := solveTridiag([]float64{0}, []float64{0}, []float64{0}, []float64{1}); err == nil {
		t.Error("zero pivot accepted")
	}
}

// solveTridiag solves a tridiagonal system with the Thomas algorithm, the
// reference the band factor is checked against:
//
//	lower[i]·x[i-1] + diag[i]·x[i] + upper[i]·x[i+1] = rhs[i]
//
// lower[0] and upper[n-1] are ignored. The inputs are not modified; a zero
// pivot returns ErrSingular.
func solveTridiag(lower, diag, upper, rhs []float64) ([]float64, error) {
	n := len(diag)
	if n == 0 {
		return nil, fmt.Errorf("linalg: solveTridiag: empty system")
	}
	if len(lower) != n || len(upper) != n || len(rhs) != n {
		return nil, fmt.Errorf("linalg: solveTridiag: inconsistent lengths (lower=%d diag=%d upper=%d rhs=%d)",
			len(lower), n, len(upper), len(rhs))
	}
	cp := make([]float64, n) // modified upper coefficients
	dp := make([]float64, n) // modified rhs
	if diag[0] == 0 {
		return nil, fmt.Errorf("%w: zero pivot at row 0", ErrSingular)
	}
	cp[0] = upper[0] / diag[0]
	dp[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - lower[i]*cp[i-1]
		if den == 0 {
			return nil, fmt.Errorf("%w: zero pivot at row %d", ErrSingular, i)
		}
		cp[i] = upper[i] / den
		dp[i] = (rhs[i] - lower[i]*dp[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x, nil
}
