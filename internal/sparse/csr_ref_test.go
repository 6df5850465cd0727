package sparse

// CSR is the tests' reference matrix: a plain compressed-sparse-row
// implementation of Operator, assembled by the COO builder, against which
// every Stencil kernel and whole CG solves are checked bit for bit.

import (
	"fmt"
	"math"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Entries with
// identical coordinates are summed on conversion, which is exactly what
// finite-volume/network assembly needs.
type COO struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewCOO returns an empty builder for a rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid COO dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) out of range for %dx%d", i, j, c.rows, c.cols))
	}
	if v == 0 {
		return
	}
	c.ri = append(c.ri, i)
	c.ci = append(c.ci, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of accumulated (pre-deduplication) entries.
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts the builder to compressed sparse row format, summing
// duplicate coordinates.
func (c *COO) ToCSR() *CSR {
	type entry struct {
		r, c int
		v    float64
	}
	entries := make([]entry, len(c.v))
	for i := range c.v {
		entries[i] = entry{c.ri[i], c.ci[i], c.v[i]}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].r != entries[b].r {
			return entries[a].r < entries[b].r
		}
		return entries[a].c < entries[b].c
	})
	// Merge duplicates.
	merged := entries[:0]
	for _, e := range entries {
		if n := len(merged); n > 0 && merged[n-1].r == e.r && merged[n-1].c == e.c {
			merged[n-1].v += e.v
			continue
		}
		merged = append(merged, e)
	}
	m := &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: make([]int, c.rows+1),
		colIdx: make([]int, len(merged)),
		val:    make([]float64, len(merged)),
	}
	for i, e := range merged {
		m.rowPtr[e.r+1]++
		m.colIdx[i] = e.c
		m.val[i] = e.v
	}
	for i := 0; i < c.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewCSRFromSorted wraps pre-compressed arrays as a CSR matrix without the
// COO round-trip, for callers that assemble rows in order with sorted,
// deduplicated columns. The slices are adopted, not copied; the caller must
// not modify them afterwards. The layout is validated in one O(nnz) pass.
func NewCSRFromSorted(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid CSR dimensions %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: inconsistent CSR arrays: %d rowPtr, %d colIdx, %d val",
			len(rowPtr), len(colIdx), len(val))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if j := colIdx[k]; j < 0 || j >= cols {
				return nil, fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return nil, fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// Rows returns the row count.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the column count.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the value at (i, j) (zero when not stored). Intended for tests
// and diagnostics; hot paths should use MulVec.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	row := m.colIdx[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return m.val[lo+k]
	}
	return 0
}

// MulVec computes y = A·x, reusing y when it has the right length.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %dx%d, x %d", m.rows, m.cols, len(x)))
	}
	if len(y) != m.rows {
		y = make([]float64, m.rows)
	}
	m.SpanMulVec(x, y, 0, m.rows)
	return y
}

// Each calls fn for every stored entry in row-major order.
func (m *CSR) Each(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			fn(i, m.colIdx[k], m.val[k])
		}
	}
}

// Diagonal extracts the main diagonal.
func (m *CSR) Diagonal() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	return m.DiagonalInto(make([]float64, n))
}

// DiagonalInto writes the main diagonal into d and returns it. d must have
// min(rows, cols) elements.
func (m *CSR) DiagonalInto(d []float64) []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	if len(d) != n {
		panic("sparse: DiagonalInto length mismatch")
	}
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			if math.Abs(m.val[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Residual returns ||A·x - b||_inf.
func (m *CSR) Residual(x, b []float64) float64 {
	ax := m.MulVec(x, nil)
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// SpanMulVec implements Operator.
func (m *CSR) SpanMulVec(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// SpanMulVecDot implements Operator.
func (m *CSR) SpanMulVecDot(x, y, w []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		var yi float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			yi += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = yi
		s += w[i] * yi
	}
	return s
}

// SpanResidual mirrors Stencil.SpanResidual.
func (m *CSR) SpanResidual(x, b, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		r[i] = b[i] - s
	}
}
