package sparse

import "math"

// Operator is the read-only matrix contract the iterative solvers and the
// multigrid smoother consume: everything CG and the multigrid cycle
// need from A without committing to a storage format. *CSR implements it,
// as does the matrix-free Stencil for structured grids.
//
// The span methods each cover the half-open row range [lo, hi) with one
// plain sequential loop, and each row's sum must accumulate its terms in
// ascending column order — that single well-defined evaluation order is
// what makes two implementations of the same matrix bit-identical.
type Operator interface {
	// Rows and Cols report the matrix dimensions.
	Rows() int
	Cols() int
	// SpanMulVec writes y[i] = (A·x)[i] for lo <= i < hi.
	SpanMulVec(x, y []float64, lo, hi int)
	// SpanMulVecDot writes y[i] = (A·x)[i] for lo <= i < hi and returns the
	// partial dot product Σ w[i]·y[i] over the span, accumulated in row
	// order — the fused kernel at the heart of every CG iteration.
	SpanMulVecDot(x, y, w []float64, lo, hi int) float64
	// SpanResidual writes r[i] = b[i] - (A·x)[i] for lo <= i < hi.
	SpanResidual(x, b, r []float64, lo, hi int)
	// DiagonalInto writes the main diagonal into d (len min(rows, cols)) and
	// returns it.
	DiagonalInto(d []float64) []float64
	// AbsRowSumsInto writes Σ_j |a_ij| into s and returns it, each row's sum
	// accumulated in ascending column order (the Gershgorin bound behind the
	// multigrid smoother's eigenvalue estimate).
	AbsRowSumsInto(s []float64) []float64
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

// SpanResidual implements Operator.
func (m *CSR) SpanResidual(x, b, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		r[i] = b[i] - s
	}
}

// AbsRowSumsInto implements Operator. s must have Rows() elements.
func (m *CSR) AbsRowSumsInto(s []float64) []float64 {
	if len(s) != m.rows {
		panic("sparse: AbsRowSumsInto length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		var row float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			row += math.Abs(m.val[k])
		}
		s[i] = row
	}
	return s
}
