package linalg

import (
	"math"
	"strings"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, idx := range [][2]int{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 0) != 3 || m.At(1, 1) != 4 {
		t.Fatalf("matrix contents wrong: %v", m)
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	x := []float64{1, -2, 7}
	y := id.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x != x: %v", y)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMul(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, -7}, {3, 4}})
	if got := a.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %g, want 7", got)
	}
}

func TestStringContainsEntries(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1.5, 2}})
	s := a.String()
	if !strings.Contains(s, "1.5") {
		t.Errorf("String() = %q", s)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).MulVec([]float64{1, 2})
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestMulAssociatesWithMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, -1}})
	b := NewMatrixFromRows([][]float64{{0, 1}, {2, 0.5}})
	x := []float64{3, -4}
	left := a.Mul(b).MulVec(x)
	right := a.MulVec(b.MulVec(x))
	for i := range left {
		if math.Abs(left[i]-right[i]) > 1e-12 {
			t.Fatalf("(AB)x != A(Bx): %v vs %v", left, right)
		}
	}
}
