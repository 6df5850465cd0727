package linalg

import (
	"errors"
	"fmt"
)

// ErrNotSPD is returned when a factorization meets a non-positive pivot:
// the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Band is a symmetric matrix whose entries A[i][j] with |i−j| > b are zero,
// held as its lower band; Factor overwrites it with its A = L·D·Lᵀ factor.
// Every conductance network in this repository is such a matrix: the Model
// A/B ladders (b = 2), the finite-volume grids (b = the stride of the
// slowest axis) and their multigrid planes and coarse grids. The factor
// keeps the band — all fill-in stays inside it — so it costs about n·b²/2
// multiply-adds to form and 2·n·b per solve. It takes no square roots, so a
// lone node of conductance g solves to exactly q/g.
type Band struct {
	n, b int
	// v holds row i, columns i−b … i, at v[i·(b+1):(i+1)·(b+1)]: the
	// diagonal is the last entry, and columns left of 0 stay zero. After
	// Factor the diagonal holds D and the rest L's unit-lower band.
	v []float64
}

// NewBand returns a zeroed n×n band of half-bandwidth b (at most n−1) in
// the first n·(b+1) values of buf, or in new storage when buf is nil; a
// factor in a buffer of an earlier one reuses its storage.
func NewBand(n, b int, buf []float64) *Band {
	if n <= 0 || b < 0 {
		panic(fmt.Sprintf("linalg: invalid band dimensions n=%d b=%d", n, b))
	}
	b = min(b, n-1)
	if buf == nil {
		buf = make([]float64, n*(b+1))
	}
	v := buf[:n*(b+1)]
	clear(v)
	return &Band{n: n, b: b, v: v}
}

// N returns the matrix dimension.
func (m *Band) N() int { return m.n }

// Bandwidth returns the half-bandwidth b.
func (m *Band) Bandwidth() int { return m.b }

// Add accumulates v into A[i][j] and, by symmetry, A[j][i]. It panics when
// the entry lies outside the matrix or the band, which in assembly code
// means a wrong bandwidth.
func (m *Band) Add(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	if j < 0 || i >= m.n || i-j > m.b {
		panic(fmt.Sprintf("linalg: band entry (%d,%d) outside n=%d b=%d", i, j, m.n, m.b))
	}
	m.v[i*(m.b+1)+j-i+m.b] += v
}

// Factor overwrites the band with L and D, A = L·D·Lᵀ, a row at a time. A
// pivot that is not positive fails with an error wrapping ErrNotSPD and
// naming its row.
func (m *Band) Factor() error {
	b, w := m.b, m.b+1
	for i := 0; i < m.n; i++ {
		j0 := max(0, i-b)
		row := m.v[i*w+j0-i+b : (i+1)*w] // A[i, j0…i]
		// First u[i,j] = L[i,j]·D[j] in place: every row j ≥ j0 reaches
		// back to column j0, so rows i and j overlap on columns j0 … j−1.
		for j := j0; j < i; j++ {
			lj := m.v[j*w+j0-j+b : (j+1)*w]
			s := row[j-j0]
			for k, u := range row[:j-j0] {
				s -= u * lj[k]
			}
			row[j-j0] = s
		}
		// Then L[i,j] = u[i,j]/D[j], and D[i] = A[i,i] − Σ u[i,j]·L[i,j].
		d := row[i-j0]
		for k, u := range row[:i-j0] {
			l := u / m.v[(j0+k)*w+b]
			d -= u * l
			row[k] = l
		}
		if !(d > 0) {
			return fmt.Errorf("linalg: band LDLᵀ pivot of row %d is %g: %w", i, d, ErrNotSPD)
		}
		row[i-j0] = d
	}
	return nil
}

// Solve writes the solution of L·D·Lᵀ·x = rhs into x, which may alias rhs:
// a forward sweep with L, a scaling by D, then a backward sweep with Lᵀ
// that walks L by rows, subtracting each finished unknown from the ones its
// row couples to. The band must be factored; vectors of another length
// panic.
func (m *Band) Solve(x, rhs []float64) {
	if len(x) != m.n || len(rhs) != m.n {
		panic(fmt.Sprintf("linalg: band solve of %d unknowns into %d values from %d", m.n, len(x), len(rhs)))
	}
	b, w := m.b, m.b+1
	for i := 0; i < m.n; i++ {
		j0 := max(0, i-b)
		s := rhs[i]
		for k, l := range m.v[i*w+j0-i+b : i*w+b] {
			s -= l * x[j0+k]
		}
		x[i] = s
	}
	for i := range m.n {
		x[i] /= m.v[i*w+b]
	}
	for i := m.n - 1; i >= 0; i-- {
		j0 := max(0, i-b)
		xi := x[i]
		for k, l := range m.v[i*w+j0-i+b : i*w+b] {
			x[j0+k] -= l * xi
		}
	}
}
