package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := NewMatrixFromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	_, err := Solve(a, []float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveZeroMatrix(t *testing.T) {
	_, err := Solve(NewMatrix(2, 2), []float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := Factorize(NewMatrix(2, 3)); err == nil {
		t.Fatal("factorizing a non-square matrix succeeded")
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	f, err := Factorize(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("rhs dimension mismatch accepted")
	}
}

func TestSolveRandomSystemsResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal boost keeps the random systems well-conditioned.
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: residual %g too large", trial, r)
		}
	}
}

func TestLUReuseAcrossRHS(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{4, 1}, {1, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 2}, {0, 0}, {-3, 5}} {
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(a, x, b); r > 1e-12 {
			t.Fatalf("residual %g for rhs %v", r, b)
		}
	}
}

// Property: for any diagonally dominant matrix built from random data,
// Solve produces a vector whose residual is tiny (quick-check form).
func TestSolvePropertyResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := rng.Float64()*2 - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Set(i, i, rowSum+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: solving is linear — Solve(A, b1+b2) == Solve(A,b1) + Solve(A,b2).
func TestSolveLinearity(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{5, 1, 0},
		{1, 4, 1},
		{0, 1, 3},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b1 := []float64{1, 2, 3}
	b2 := []float64{-2, 0.5, 4}
	sum := make([]float64, 3)
	for i := range sum {
		sum[i] = b1[i] + b2[i]
	}
	x1, _ := f.Solve(b1)
	x2, _ := f.Solve(b2)
	xs, _ := f.Solve(sum)
	for i := range xs {
		if math.Abs(xs[i]-(x1[i]+x2[i])) > 1e-12 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

// residual returns the max-norm of A·x - b.
func residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
