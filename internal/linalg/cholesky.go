package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization meets a non-positive
// pivot: the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorizeCholesky computes the Cholesky factorization of a symmetric
// positive definite matrix. Only the lower triangle of a is read; the input
// is not modified. Thermal conductance matrices are SPD, so this is the
// natural dense direct solver for them (the multigrid coarse solve).
func FactorizeCholesky(a *Matrix) (*Cholesky, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: cannot Cholesky-factorize non-square %dx%d matrix", n, a.Cols())
	}
	// The inner loops run on raw row slices: accessor bounds checks cost
	// real time on the multigrid build path.
	l := NewMatrix(n, n)
	ad, ld := a.data, l.data
	for j := 0; j < n; j++ {
		rowj := ld[j*n : j*n+j+1 : j*n+j+1]
		d := ad[j*n+j]
		for _, v := range rowj[:j] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, j, d)
		}
		d = math.Sqrt(d)
		rowj[j] = d
		for i := j + 1; i < n; i++ {
			rowi := ld[i*n : i*n+j+1 : i*n+j+1]
			s := ad[i*n+j]
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			rowi[j] = s / d
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A·x = b using the factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.l.rows)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst, which must not alias b. It performs no
// allocation, so the per-cycle multigrid coarse solve allocates nothing.
func (c *Cholesky) SolveInto(dst, b []float64) error {
	n := c.l.rows
	if len(b) != n {
		return fmt.Errorf("linalg: Cholesky solve dimension mismatch: matrix %d, rhs %d", n, len(b))
	}
	if len(dst) != n {
		return fmt.Errorf("linalg: Cholesky solve destination length %d, want %d", len(dst), n)
	}
	ld := c.l.data
	// Forward solve L·y = b.
	y := dst
	for i := 0; i < n; i++ {
		rowi := ld[i*n : i*n+i+1 : i*n+i+1]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= rowi[k] * y[k]
		}
		y[i] = s / rowi[i]
	}
	// Back solve Lᵀ·x = y.
	x := y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return nil
}

// Det returns the determinant of the factorized matrix (the squared product
// of the factor's diagonal).
func (c *Cholesky) Det() float64 {
	d := 1.0
	for i := 0; i < c.l.Rows(); i++ {
		v := c.l.At(i, i)
		d *= v * v
	}
	return d
}
