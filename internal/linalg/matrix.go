// Package linalg implements the linear algebra needed by the TTSV thermal
// models: row-major matrices, LU factorization with partial
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
