package linalg

import (
	"math"
	"testing"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, -5, 6}); got != 12 {
		t.Fatalf("Dot = %g, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %g", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
	// Overflow resistance: naive sum of squares would overflow here.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e188 {
		t.Fatalf("Norm2(big) = %g", got)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -9, 3}); got != 9 {
		t.Fatalf("NormInf = %g", got)
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, -1}, y)
	if y[0] != 7 || y[1] != -1 {
		t.Fatalf("AXPY = %v", y)
	}
}

func TestScale(t *testing.T) {
	v := []float64{1, -2}
	Scale(-3, v)
	if v[0] != -3 || v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestMaxIndex(t *testing.T) {
	i, v := MaxIndex([]float64{1, 9, 3, 9})
	if i != 1 || v != 9 {
		t.Fatalf("MaxIndex = (%d, %g)", i, v)
	}
	i, v = MaxIndex([]float64{-5})
	if i != 0 || v != -5 {
		t.Fatalf("MaxIndex single = (%d, %g)", i, v)
	}
}

func TestMaxIndexEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MaxIndex(nil)
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("Sum = %g", got)
	}
}
