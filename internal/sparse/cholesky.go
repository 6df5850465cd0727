package sparse

// Banded factorization of a stencil operator.
//
// In the fem index order every neighbor of a cell lies within b rows of it,
// where b is the stride of the slowest-varying axis with more than one cell
// (nr on the axisymmetric grid, nx·ny on the 3-D one). The operator is then
// an SPD band matrix, which linalg.Band factors as L·D·Lᵀ inside the band.
// On grids where n·b² is small that beats any iteration.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/linalg"
)

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

// CholeskyLen is the storage a banded factor of s needs: n·(b+1).
func CholeskyLen(s *Stencil) int { return s.n * (s.HalfBandwidth() + 1) }

// FactorCholesky fills a's lower band into buf, whose first CholeskyLen(a)
// values it overwrites, and factors it there; the factor keeps buf, so
// refactoring a changed operator into the same buffer reuses the storage. A
// pivot that is not positive fails with an error wrapping linalg.ErrNotSPD
// and naming its row.
func FactorCholesky(a *Stencil, buf []float64) (*linalg.Band, error) {
	if len(buf) < CholeskyLen(a) {
		return nil, fmt.Errorf("sparse: Cholesky buffer holds %d values, want %d", len(buf), CholeskyLen(a))
	}
	f := linalg.NewBand(a.n, a.HalfBandwidth(), buf)
	// Row i's lower couplings straight into the band. Each entry is stored
	// as 0 + v, the sum Band.Add would leave in the zeroed band, so a −0
	// coefficient lands as +0 all the same.
	b := f.Bandwidth()
	nx, ny, nxy := a.nx, a.ny, a.nxy
	d, ox, oy, oz := a.diag, a.off[0], a.off[1], a.off[2]
	ix, iy, iz := 0, 0, 0
	for i := range a.n {
		row := f.Row(i)
		if iz > 0 {
			row[b-nxy] = 0 + oz[i-nxy]
		}
		if iy > 0 {
			row[b-nx] = 0 + oy[i-nx]
		}
		if ix > 0 {
			row[b-1] = 0 + ox[i-1]
		}
		row[b] = 0 + d[i]
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
	if err := f.Factor(); err != nil {
		return nil, err
	}
	return f, nil
}

// SolveCholesky solves A·x = b with f, a factor of a: two triangular sweeps
// into x, then one matvec into a scratch vector for the true relative
// residual ‖b − A·x‖/‖b‖ that Stats reports. Both vectors come from pl; the
// caller owns x and may hand it back with pl.Release once it is done with
// it. ctx is checked before the sweeps.
func SolveCholesky(ctx context.Context, a *Stencil, f *linalg.Band, b []float64, pl *Pool) ([]float64, Stats, error) {
	start := time.Now()
	st := Stats{Direct: true, Bandwidth: f.Bandwidth()}
	if f.N() != a.n || len(b) != a.n {
		return nil, st, fmt.Errorf("sparse: Cholesky solve of %d unknowns with a %d-row factor and a %d-value rhs", a.n, f.N(), len(b))
	}
	if err := ctxErr(ctx); err != nil {
		return nil, st, fmt.Errorf("sparse: direct solve cancelled: %w", err)
	}
	x := pl.Grab(a.n) // the forward sweep writes each entry before reading it
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
