package sparse

// Matrix-free stencil operator for structured grids.
//
// The finite-volume discretizations in internal/fem live on structured
// tensor-product grids: every row of the system couples a cell to at most
// one neighbor per axis direction (a 5-point stencil on the axisymmetric
// (r, z) grid, 7-point on the 3-D Cartesian grid), and each face conductance
// serves both cells it separates, so the system is symmetric by
// construction. The Stencil stores exactly that: one diagonal array plus one
// off-diagonal array per axis (off[d][i] = A[i, i+stride_d]), and enumerates
// the neighbors arithmetically. The assembly writes these arrays directly;
// no sparsity pattern or column index exists, and a matvec streams roughly a
// third of the bytes a CSR walk of the same matrix would.
//
// Every kernel accumulates a row's terms in ascending column order — −z, −y,
// −x, diagonal, +x, +y, +z — using off[d][i−s_d] for the lower neighbor.
// That is the order a CSR row walk uses, so a CSR holding the same entries
// (built from Each, which walks them in that order) evaluates bit-
// identically; the tests in this package keep the CSR kernels as the
// reference for every stencil kernel and for whole CG solves.

import "fmt"

// Stencil is a matrix-free Operator for a symmetric nearest-neighbor matrix
// on a structured grid, backed by caller-owned coefficient arrays.
type Stencil struct {
	dims       []int
	nx, ny, nz int // cells per axis, fastest-varying first; 1 when absent
	nxy        int // nx·ny, the z-neighbor stride
	n          int

	diag []float64
	// off[d][i] = A[i, i + stride_d] where stride = {1, nx, nx·ny}; never
	// read where the neighbor does not exist. Lower neighbors reuse the same
	// arrays through symmetry: A[i, i−s_d] = off[d][i−s_d].
	off [3][]float64
}

// NewStencilCoeffs wraps caller-owned coefficient arrays as a matrix-free
// stencil operator on a grid with the given per-axis cell counts, fastest-
// varying axis first (the fem convention: axi index = iz·nr + ir has dims
// [nr, nz]; cart index = (iz·ny + iy)·nx + ix has dims [nx, ny, nz]). diag
// holds the main diagonal; off[d][i] = A[i, i+stride_d] must be nil exactly
// for axes of extent 1 and is never read where the upper neighbor does not
// exist. The arrays are retained, not copied: a caller refilling
// coefficients in place just overwrites them, and symmetry is structural —
// the same off entry serves both triangles.
func NewStencilCoeffs(dims []int, diag []float64, off [3][]float64) (*Stencil, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("sparse: stencil supports 1-3 grid axes, got %d", len(dims))
	}
	nd := [3]int{1, 1, 1}
	n := 1
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("sparse: invalid grid dimensions %v", dims)
		}
		nd[i] = d
		n *= d
	}
	if n != len(diag) {
		return nil, fmt.Errorf("sparse: grid %v has %d cells, coefficients have %d", dims, n, len(diag))
	}
	s := &Stencil{dims: append([]int(nil), dims...), nx: nd[0], ny: nd[1], nz: nd[2], nxy: nd[0] * nd[1], n: n, diag: diag}
	for d := 0; d < 3; d++ {
		if nd[d] > 1 {
			if len(off[d]) != n {
				return nil, fmt.Errorf("sparse: stencil axis-%d coefficients have %d entries, want %d", d, len(off[d]), n)
			}
			s.off[d] = off[d]
		} else if off[d] != nil {
			return nil, fmt.Errorf("sparse: stencil axis %d has extent 1 but non-nil coefficients", d)
		}
	}
	return s, nil
}

// Dims returns the per-axis cell counts the stencil was built with, fastest-
// varying first. The slice is shared; callers must not modify it.
func (s *Stencil) Dims() []int { return s.dims }

// Coeffs returns the coefficient arrays backing the stencil — the diagonal
// and the per-axis upper off-diagonals, nil for axes of extent 1. They are
// the live storage, not copies.
func (s *Stencil) Coeffs() (diag []float64, off [3][]float64) { return s.diag, s.off }

// Rows implements Operator.
func (s *Stencil) Rows() int { return s.n }

// Cols implements Operator.
func (s *Stencil) Cols() int { return s.n }

// NNZ returns the structural entry count: the diagonal plus both triangles
// of every axis coupling.
func (s *Stencil) NNZ() int {
	nnz := s.n
	for _, nd := range [3]int{s.nx, s.ny, s.nz} {
		if nd > 1 {
			nnz += 2 * (s.n / nd) * (nd - 1)
		}
	}
	return nnz
}

// Each calls fn for every stored entry — the diagonal and every existing
// axis neighbor — row by row in ascending column order, the order a CSR
// row walk takes. A CSR assembled from this walk holds the same entries in
// the same order, so its kernels evaluate bit-identically to the stencil's.
func (s *Stencil) Each(fn func(i, j int, v float64)) {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := 0, 0, 0
	for i := 0; i < s.n; i++ {
		if iz > 0 {
			fn(i, i-nxy, oz[i-nxy])
		}
		if iy > 0 {
			fn(i, i-nx, oy[i-nx])
		}
		if ix > 0 {
			fn(i, i-1, ox[i-1])
		}
		fn(i, i, d[i])
		if ix+1 < nx {
			fn(i, i+1, ox[i])
		}
		if iy+1 < ny {
			fn(i, i+nx, oy[i])
		}
		if iz+1 < nz {
			fn(i, i+nxy, oz[i])
		}
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
}

// lowerSolve implements triangular: the forward Gauss–Seidel sweep
// (D+L)·z = r, subtracting the −z, −y, −x neighbors in that (ascending
// column) order like the CSR sweep.
func (s *Stencil) lowerSolve(z, r, d []float64) {
	nx, nxy := s.nx, s.nxy
	ox, oy, oz := s.off[0], s.off[1], s.off[2]
	ix, iy, iz := 0, 0, 0
	for i := 0; i < s.n; i++ {
		v := r[i]
		if iz > 0 {
			v -= oz[i-nxy] * z[i-nxy]
		}
		if iy > 0 {
			v -= oy[i-nx] * z[i-nx]
		}
		if ix > 0 {
			v -= ox[i-1] * z[i-1]
		}
		z[i] = v / d[i]
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == s.ny {
				iy = 0
				iz++
			}
		}
	}
}

// upperSolve implements triangular: the backward sweep (D+U)·z = z in
// place, from the last row up, subtracting the +x, +y, +z neighbors in that
// (ascending column) order like the CSR sweep.
func (s *Stencil) upperSolve(z, d []float64) {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	ox, oy, oz := s.off[0], s.off[1], s.off[2]
	ix, iy, iz := nx-1, ny-1, nz-1
	for i := s.n - 1; i >= 0; i-- {
		v := z[i]
		if ix+1 < nx {
			v -= ox[i] * z[i+1]
		}
		if iy+1 < ny {
			v -= oy[i] * z[i+nx]
		}
		if iz+1 < nz {
			v -= oz[i] * z[i+nxy]
		}
		z[i] = v / d[i]
		if ix--; ix < 0 {
			ix = nx - 1
			if iy--; iy < 0 {
				iy = ny - 1
				iz--
			}
		}
	}
}

// coords decomposes row i into its grid coordinates.
func (s *Stencil) coords(i int) (ix, iy, iz int) {
	iz = i / s.nxy
	rem := i - iz*s.nxy
	iy = rem / s.nx
	return rem - iy*s.nx, iy, iz
}

// The span loops below all walk the same neighbor sequence: −z, −y, −x,
// diagonal, +x, +y, +z — ascending column order, matching the CSR row walk
// term for term. Axes of extent 1 never pass their coordinate guards, so the
// nil off arrays of collapsed axes are never read.

// SpanMulVec implements Operator: y[i] = (A·x)[i] for lo <= i < hi.
func (s *Stencil) SpanMulVec(x, y []float64, lo, hi int) {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := s.coords(lo)
	for i := lo; i < hi; i++ {
		var acc float64
		if iz > 0 {
			acc += oz[i-nxy] * x[i-nxy]
		}
		if iy > 0 {
			acc += oy[i-nx] * x[i-nx]
		}
		if ix > 0 {
			acc += ox[i-1] * x[i-1]
		}
		acc += d[i] * x[i]
		if ix+1 < nx {
			acc += ox[i] * x[i+1]
		}
		if iy+1 < ny {
			acc += oy[i] * x[i+nx]
		}
		if iz+1 < nz {
			acc += oz[i] * x[i+nxy]
		}
		y[i] = acc
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
}

// SpanMulVecAdd implements Operator: y[i] += (A·x)[i] for lo <= i < hi.
func (s *Stencil) SpanMulVecAdd(x, y []float64, lo, hi int) {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := s.coords(lo)
	for i := lo; i < hi; i++ {
		var acc float64
		if iz > 0 {
			acc += oz[i-nxy] * x[i-nxy]
		}
		if iy > 0 {
			acc += oy[i-nx] * x[i-nx]
		}
		if ix > 0 {
			acc += ox[i-1] * x[i-1]
		}
		acc += d[i] * x[i]
		if ix+1 < nx {
			acc += ox[i] * x[i+1]
		}
		if iy+1 < ny {
			acc += oy[i] * x[i+nx]
		}
		if iz+1 < nz {
			acc += oz[i] * x[i+nxy]
		}
		y[i] += acc
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
}

// SpanMulVecDot implements Operator: y = A·x over the span plus the partial
// Σ w[i]·y[i], accumulated in row order like the CSR kernel.
func (s *Stencil) SpanMulVecDot(x, y, w []float64, lo, hi int) float64 {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := s.coords(lo)
	var sum float64
	for i := lo; i < hi; i++ {
		var acc float64
		if iz > 0 {
			acc += oz[i-nxy] * x[i-nxy]
		}
		if iy > 0 {
			acc += oy[i-nx] * x[i-nx]
		}
		if ix > 0 {
			acc += ox[i-1] * x[i-1]
		}
		acc += d[i] * x[i]
		if ix+1 < nx {
			acc += ox[i] * x[i+1]
		}
		if iy+1 < ny {
			acc += oy[i] * x[i+nx]
		}
		if iz+1 < nz {
			acc += oz[i] * x[i+nxy]
		}
		y[i] = acc
		sum += w[i] * acc
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
	return sum
}

// SpanResidual implements Operator: r[i] = b[i] - (A·x)[i] for lo <= i < hi.
func (s *Stencil) SpanResidual(x, b, r []float64, lo, hi int) {
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := s.coords(lo)
	for i := lo; i < hi; i++ {
		var acc float64
		if iz > 0 {
			acc += oz[i-nxy] * x[i-nxy]
		}
		if iy > 0 {
			acc += oy[i-nx] * x[i-nx]
		}
		if ix > 0 {
			acc += ox[i-1] * x[i-1]
		}
		acc += d[i] * x[i]
		if ix+1 < nx {
			acc += ox[i] * x[i+1]
		}
		if iy+1 < ny {
			acc += oy[i] * x[i+nx]
		}
		if iz+1 < nz {
			acc += oz[i] * x[i+nxy]
		}
		r[i] = b[i] - acc
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
}

// MulVec computes y = A·x sequentially, reusing y when it has the right
// length — the Stencil counterpart of CSR.MulVec, for tests and diagnostics.
func (s *Stencil) MulVec(x, y []float64) []float64 {
	if len(x) != s.n {
		panic(fmt.Sprintf("sparse: stencil MulVec dimension mismatch: matrix %dx%d, x %d", s.n, s.n, len(x)))
	}
	if len(y) != s.n {
		y = make([]float64, s.n)
	}
	s.SpanMulVec(x, y, 0, s.n)
	return y
}

// DiagonalInto implements Operator.
func (s *Stencil) DiagonalInto(d []float64) []float64 {
	if len(d) != s.n {
		panic("sparse: DiagonalInto length mismatch")
	}
	copy(d, s.diag)
	return d
}

// AbsRowSumsInto implements Operator, accumulating each row's absolute sum
// in the same ascending column order as the CSR walk.
func (s *Stencil) AbsRowSumsInto(out []float64) []float64 {
	if len(out) != s.n {
		panic("sparse: AbsRowSumsInto length mismatch")
	}
	nx, ny, nz, nxy := s.nx, s.ny, s.nz, s.nxy
	d, ox, oy, oz := s.diag, s.off[0], s.off[1], s.off[2]
	ix, iy, iz := 0, 0, 0
	for i := 0; i < s.n; i++ {
		var acc float64
		if iz > 0 {
			acc += abs(oz[i-nxy])
		}
		if iy > 0 {
			acc += abs(oy[i-nx])
		}
		if ix > 0 {
			acc += abs(ox[i-1])
		}
		acc += abs(d[i])
		if ix+1 < nx {
			acc += abs(ox[i])
		}
		if iy+1 < ny {
			acc += abs(oy[i])
		}
		if iz+1 < nz {
			acc += abs(oz[i])
		}
		out[i] = acc
		if ix++; ix == nx {
			ix = 0
			if iy++; iy == ny {
				iy = 0
				iz++
			}
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
