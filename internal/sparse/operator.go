// Package sparse implements the linear algebra of the finite-volume
// heat-conduction reference solver: the matrix-free Stencil its structured
// grids fill directly, its banded LDLᵀ factorization, and Conjugate
// Gradient with a multigrid hook for grids too large to factor.
package sparse

// Operator is the read-only matrix contract the iterative solvers consume:
// everything CG needs from A without committing to a storage format. The
// matrix-free Stencil implements it, as does the tests' reference CSR.
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
}
