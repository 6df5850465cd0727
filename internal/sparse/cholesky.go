package sparse

// Banded Cholesky factorization of a stencil operator.
//
// In the fem index order every neighbor of a cell lies within b rows of it,
// where b is the stride of the slowest-varying axis with more than one cell
// (nr on the axisymmetric grid, nx·ny on the 3-D one). The Cholesky factor
// of such an SPD band matrix keeps the band — all fill-in stays inside it —
// so it fits in n·(b+1) values, costs about n·b²/2 multiply-adds to form and
// 2·n·b per solve. On grids where n·b² is small that beats any iteration.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
)

// Cholesky is the banded Cholesky factor L of a stencil operator, A = L·Lᵀ.
type Cholesky struct {
	n, b int
	// l holds row i of L, columns i−b … i, at l[i·(b+1):(i+1)·(b+1)]: the
	// diagonal is the last entry, and columns left of 0 stay zero.
	l []float64
}

// HalfBandwidth returns b, the largest distance between a row and a column
// it couples to: the stride of the slowest-varying axis with more than one
// cell, 0 for a single cell.
func (s *Stencil) HalfBandwidth() int {
	switch {
	case s.nz > 1:
		return s.nxy
	case s.ny > 1:
		return s.nx
	case s.nx > 1:
		return 1
	}
	return 0
}

// CholeskyLen is the storage a banded Cholesky factor of s needs: n·(b+1).
func CholeskyLen(s *Stencil) int { return s.n * (s.HalfBandwidth() + 1) }

// FactorCholesky factors a into buf, whose first CholeskyLen(a) values it
// overwrites; the factor keeps buf, so refactoring a changed operator into
// the same buffer reuses the storage. A pivot that is not positive fails
// with an error wrapping linalg.ErrNotSPD and naming its row.
func FactorCholesky(a *Stencil, buf []float64) (*Cholesky, error) {
	n, b := a.n, a.HalfBandwidth()
	w := b + 1
	if len(buf) < n*w {
		return nil, fmt.Errorf("sparse: Cholesky buffer holds %d values, want %d", len(buf), n*w)
	}
	l := buf[:n*w]
	clear(l)
	a.Each(func(i, j int, v float64) {
		if j <= i {
			l[i*w+j-i+b] = v
		}
	})
	for i := 0; i < n; i++ {
		j0 := max(0, i-b)
		row := l[i*w+j0-i+b : (i+1)*w] // L[i, j0…i]
		for j := j0; j <= i; j++ {
			// Every row j ≥ j0 reaches back to column j0, so L[i,·] and
			// L[j,·] overlap on columns j0 … j−1.
			lj := l[j*w+j0-j+b : (j+1)*w]
			s := row[j-j0]
			for k, v := range row[:j-j0] {
				s -= v * lj[k]
			}
			if j < i {
				row[j-j0] = s / lj[j-j0]
			} else if s > 0 {
				row[j-j0] = math.Sqrt(s)
			} else {
				return nil, fmt.Errorf("sparse: banded Cholesky pivot of row %d is %g: %w", i, s, linalg.ErrNotSPD)
			}
		}
	}
	return &Cholesky{n: n, b: b, l: l}, nil
}

// Solve writes the solution of L·Lᵀ·x = rhs into x: a forward sweep with L,
// then a backward sweep with Lᵀ that walks L by rows, subtracting each
// finished unknown from the ones its row couples to.
func (c *Cholesky) Solve(x, rhs []float64) {
	b, w := c.b, c.b+1
	for i := 0; i < c.n; i++ {
		j0 := max(0, i-b)
		row := c.l[i*w+j0-i+b : (i+1)*w]
		s := rhs[i]
		for k, v := range row[:i-j0] {
			s -= v * x[j0+k]
		}
		x[i] = s / row[i-j0]
	}
	for i := c.n - 1; i >= 0; i-- {
		j0 := max(0, i-b)
		row := c.l[i*w+j0-i+b : (i+1)*w]
		xi := x[i] / row[i-j0]
		x[i] = xi
		for k, v := range row[:i-j0] {
			x[j0+k] -= v * xi
		}
	}
}

// SolveCholesky solves A·x = b with f, a factor of a: two triangular sweeps,
// then one matvec into a vector from pl for the true relative residual
// ‖b − A·x‖/‖b‖ that Stats reports. ctx is checked before the sweeps.
func SolveCholesky(ctx context.Context, a *Stencil, f *Cholesky, b []float64, pl *Pool) ([]float64, Stats, error) {
	start := time.Now()
	st := Stats{Direct: true, Bandwidth: f.b}
	if f.n != a.n || len(b) != a.n {
		return nil, st, fmt.Errorf("sparse: Cholesky solve of %d unknowns with a %d-row factor and a %d-value rhs", a.n, f.n, len(b))
	}
	if err := ctxErr(ctx); err != nil {
		return nil, st, fmt.Errorf("sparse: direct solve cancelled: %w", err)
	}
	x := make([]float64, a.n)
	f.Solve(x, b)
	r := pl.Grab(a.n)
	a.SpanResidual(x, b, r, 0, a.n)
	if bn := norm2(b); bn > 0 {
		st.Residual = norm2(r) / bn
	}
	pl.Release(r)
	st.Wall = time.Since(start)
	return x, st, nil
}
