package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// A dense SPD matrix is a band with b = n−1: these tests run the band
// factor on full matrices against the dense LU.

func spdTestMatrix() *Matrix {
	return NewMatrixFromRows([][]float64{
		{4, 1, 0},
		{1, 3, -1},
		{0, -1, 2},
	})
}

func TestCholeskySolve(t *testing.T) {
	a := spdTestMatrix()
	b := []float64{1, 2, 3}
	x, err := solveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestCholeskyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(15)
		// Build SPD as Mᵀ·M + I.
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a := m.Transpose().Mul(m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xc, err := solveSPD(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		xl, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xc {
			if math.Abs(xc[i]-xl[i]) > 1e-8*(1+math.Abs(xl[i])) {
				t.Fatalf("trial %d: Cholesky %g vs LU %g at %d", trial, xc[i], xl[i], i)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{1, 0},
		{0, -1},
	})
	if _, err := solveSPD(a, []float64{1, 1}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRejectsSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{1, 1},
		{1, 1},
	})
	if err := denseBand(a).Factor(); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskySolveDimensionMismatch(t *testing.T) {
	f := denseBand(spdTestMatrix())
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "a short rhs", func() { f.Solve(make([]float64, 3), []float64{1}) })
	mustPanic(t, "a short solution vector", func() { f.Solve(make([]float64, 2), []float64{1, 2, 3}) })
}

func TestCholeskyReuse(t *testing.T) {
	a := spdTestMatrix()
	f := denseBand(a)
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0, 0}, {0, 1, 0}, {3, -2, 5}} {
		x := make([]float64, len(b))
		f.Solve(x, b)
		if r := residual(a, x, b); r > 1e-12 {
			t.Fatalf("residual %g for rhs %v", r, b)
		}
	}
}

// Property: diagonally dominant symmetric matrices with positive diagonal
// are SPD and solvable via Cholesky with tiny residuals.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() - 0.5
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if j != i {
					rowSum += math.Abs(a.At(i, j))
				}
			}
			a.Set(i, i, rowSum+0.5)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveSPD(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// denseBand copies the lower triangle of the square matrix a into a band of
// half-bandwidth n−1.
func denseBand(a *Matrix) *Band {
	n := a.Rows()
	m := NewBand(n, n-1, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			m.Add(i, j, a.At(i, j))
		}
	}
	return m
}

// solveSPD solves A·x = b with a fresh band factorization of the dense a.
func solveSPD(a *Matrix, b []float64) ([]float64, error) {
	return solveBand(denseBand(a), b)
}
