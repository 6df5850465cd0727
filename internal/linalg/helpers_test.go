package linalg

import "fmt"

// Test-only constructors and products: the package's own tests build and
// check matrices with them; no production code needs them.

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
