// Package linalg implements the linear algebra needed by the TTSV thermal
// models: vectors, row-major matrices, LU factorization with partial
// pivoting, and the banded LDLᵀ factor (band.go) that solves every
// symmetric positive definite system in the repository — the Model A/B
// ladders, the finite-volume grids solved direct, and the multigrid planes
// and coarse grids.
//
// A straightforward, well-tested implementation is preferable to pulling in
// a numerical library; the sparse package fills the band from its stencils
// and covers the grids too large to factor.
package linalg

import (
	"fmt"
	"math"
)

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

// NewMatrixFromRows builds a matrix from row slices; all rows must have the
// same length.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: NewMatrixFromRows needs at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns the matrix product m · b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch: %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// IsSymmetric reports whether the matrix is square and symmetric within the
// given absolute tolerance.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
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
