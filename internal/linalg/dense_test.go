package linalg

import (
	"errors"
	"fmt"
	"math"
)

// The dense matrix and its LU factorization with partial pivoting are the
// references the banded factor's tests check it against; no production code
// needs them.

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix. It panics on non-positive
// dimensions, which always indicate a programming error.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at (i, j). Assembly code uses this heavily.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns m · x. It panics if len(x) != Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: matrix %dx%d, vector %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
	return y
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s += "["
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%10.4g", m.At(i, j))
		}
		s += "]\n"
	}
	return s
}

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds the LU factorization of a square matrix with partial pivoting:
// P·A = L·U where L is unit-lower-triangular and U is upper-triangular,
// stored compactly in a single matrix.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factorize computes the LU factorization of a. The input matrix is not
// modified. It returns ErrSingular (wrapped with the pivot column) if a
// pivot is exactly zero or smaller than a conservative threshold relative to
// the matrix scale.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: cannot factorize non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	pivot := make([]int, n)
	scale := lu.MaxAbs()
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero matrix", ErrSingular)
	}
	tiny := scale * 1e-300 // only exact/underflow-level singularity is fatal
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		pivot[k] = p
		if max <= tiny {
			return nil, fmt.Errorf("%w: pivot %d (|pivot|=%g)", ErrSingular, k, max)
		}
		if p != k {
			swapRows(lu, p, k)
		}
		pk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pk
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, float64(-m*lu.At(k, j)))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

func swapRows(m *Matrix, a, b int) {
	for j := 0; j < m.Cols(); j++ {
		va, vb := m.At(a, j), m.At(b, j)
		m.Set(a, j, vb)
		m.Set(b, j, va)
	}
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve dimension mismatch: matrix %d, rhs %d", n, len(b))
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the full permutation first: row swaps performed at later
	// elimination steps also moved the already-stored multipliers of earlier
	// columns, so the compact L is expressed in the final row order.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward-substitute the unit-lower-triangular L.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			x[i] -= float64(f.lu.At(i, k) * x[k])
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(f.lu.At(i, j) * x[j])
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves A·x = b with a fresh LU factorization. Use Factorize + LU.Solve
// to reuse the factorization across multiple right-hand sides.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
