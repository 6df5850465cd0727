// Package linalg implements the banded LDLᵀ factor that solves every
// symmetric positive definite system in the repository — the Model A/B
// ladders, the finite-volume grids solved direct, and the multigrid planes
// and coarse grids.
//
// A straightforward, well-tested implementation is preferable to pulling in
// a numerical library; the sparse package fills the band from its stencils
// and covers the grids too large to factor.
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
//
// Every product the factor and the sweeps subtract is written float64(a*b),
// which rounds it before the subtraction: without it the arm64 compiler
// fuses the two into one multiply-add of one rounding, and an arm64 host
// would get other bits than an amd64 one. `make verify` fails if the arm64
// build of this package holds a fused multiply-add.
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
	m := new(Band)
	m.init(n, b, buf)
	return m
}

// init makes m the zeroed band NewBand describes. NewBand is only this
// call, so it inlines, and a caller that copies its result into a Band
// value allocates nothing for the header.
func (m *Band) init(n, b int, buf []float64) {
	if n <= 0 || b < 0 {
		panic(fmt.Sprintf("linalg: invalid band dimensions n=%d b=%d", n, b))
	}
	b = min(b, n-1)
	if buf == nil {
		buf = make([]float64, n*(b+1))
	}
	m.n, m.b, m.v = n, b, buf[:n*(b+1)]
	clear(m.v)
}

// N returns the matrix dimension.
func (m *Band) N() int { return m.n }

// Bandwidth returns the half-bandwidth b.
func (m *Band) Bandwidth() int { return m.b }

// Row returns the storage of row i, columns i−b … i with the diagonal
// last, for filling a band in place; entries of columns left of 0 must stay
// zero. Before Factor it holds A's lower band, after it L's and D.
func (m *Band) Row(i int) []float64 { return m.v[i*(m.b+1) : (i+1)*(m.b+1)] }

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
//
// On amd64 CPUs with AVX2, bands at least laneMinBand wide factor their
// full-band rows four at a time, one row per lane of a 256-bit register
// (band_amd64.go). Each lane runs the row loop's multiplies and
// subtractions in the row loop's order, so the factor, its error and the
// partial factor an error leaves are bit for bit the row loop's.
func (m *Band) Factor() error {
	i, err := m.factorLanes()
	if err != nil {
		return err
	}
	return m.factorRows(i, m.n)
}

// laneMinBand is the narrowest band whose rows factor in AVX2 lanes: below
// it the row loop was as fast or faster. The first b rows, the (n−b) mod 4
// rows after the last block of four and every row of a narrower band, the
// Model A/B ladders' included, run the row loop.
const laneMinBand = 8

// factorRows factors rows from … to−1, whose earlier rows are factored.
//
// The dot products of a row run as independent chains: four consecutive
// columns at once over their shared columns, each reading u[i,k] once,
// after the few columns the blocks leave over, whose dots are the
// shortest. Every entry still subtracts the same terms in ascending column
// order, so the factor is bit for bit that of the one-column-at-a-time
// loop.
func (m *Band) factorRows(from, to int) error {
	b, w, v := m.b, m.b+1, m.v
	for i := from; i < to; i++ {
		j0 := max(0, i-b)
		row := v[i*w+j0-i+b : (i+1)*w] // A[i, j0…i]
		// First u[i,j] = L[i,j]·D[j] in place: every row j ≥ j0 reaches
		// back to column j0, so rows i and j overlap on columns j0 … j−1.
		// From column j0 on, row j0+j starts at v[(j0+j)·b+j0+b]: rows lie
		// b apart.
		c := i - j0
		j := 0
		for ; j < c%4; j++ {
			row[j] = subDot(row[j], v[(j0+j)*b+j0+b:][:j], row[:j])
		}
		for ; j < c; j += 4 {
			l := v[(j0+j)*b+j0+b:]
			u := row[:j]
			l0, l1, l2, l3 := l[:len(u)], l[b:][:len(u)], l[2*b:][:len(u)], l[3*b:][:len(u)]
			s0, s1, s2, s3 := row[j], row[j+1], row[j+2], row[j+3]
			for k, uk := range u {
				s0 -= float64(uk * l0[k])
				s1 -= float64(uk * l1[k])
				s2 -= float64(uk * l2[k])
				s3 -= float64(uk * l3[k])
			}
			// The columns' own triangle: column j+t also needs u[i,j…j+t−1].
			t1, t2, t3 := l[b+j:][:1], l[2*b+j:][:2], l[3*b+j:][:3]
			s1 -= float64(s0 * t1[0])
			s2 -= float64(s0 * t2[0])
			s2 -= float64(s1 * t2[1])
			s3 -= float64(s0 * t3[0])
			s3 -= float64(s1 * t3[1])
			s3 -= float64(s2 * t3[2])
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
		}
		// Then L[i,j] = u[i,j]/D[j], and D[i] = A[i,i] − Σ u[i,j]·L[i,j].
		d := row[c]
		for k, u := range row[:c] {
			l := u / v[(j0+k)*w+b]
			d -= float64(u * l)
			row[k] = l
		}
		if !(d > 0) {
			return fmt.Errorf("linalg: band LDLᵀ pivot of row %d is %g: %w", i, d, ErrNotSPD)
		}
		row[c] = d
	}
	return nil
}

// Solve writes the solution of L·D·Lᵀ·x = rhs into x, which may alias rhs:
// a forward sweep with L, a scaling by D, then a backward sweep with Lᵀ
// that walks L by rows, subtracting each finished unknown from the ones its
// row couples to. The band must be factored; vectors of another length
// panic.
//
// Both sweeps take four rows at a time as independent chains. Forward, the
// rows advance in lockstep over the columns they share, each taking its
// own leading columns first and its coupling to the block's earlier rows
// last; backward, each x[j] takes the four finished unknowns in descending
// row order, read and written once per block. Every unknown still takes the
// same terms in the same order as the row-at-a-time sweeps, so the solution
// is bit for bit theirs.
func (m *Band) Solve(x, rhs []float64) {
	n, b, w, v := m.n, m.b, m.b+1, m.v
	if len(x) != n || len(rhs) != n {
		panic(fmt.Sprintf("linalg: band solve of %d unknowns into %d values from %d", n, len(x), len(rhs)))
	}
	// lower(i) is L's row i, columns max(0, i−b) … i−1; a block of four
	// rows needs b ≥ 3 for its last row to reach its first.
	lower := func(i int) []float64 { return v[i*w+max(0, i-b)-i+b : i*w+b] }
	blocks := b >= 3
	i := 0
	for ; blocks && i+4 <= n; i += 4 {
		// The rows share columns c … i−1.
		c := max(0, i+3-b)
		r0, r1, r2, r3 := lower(i), lower(i+1), lower(i+2), lower(i+3)
		s0 := subDot(rhs[i], r0[:len(r0)-(i-c)], x[max(0, i-b):c])
		s1 := subDot(rhs[i+1], r1[:len(r1)-(i-c)-1], x[max(0, i+1-b):c])
		s2 := subDot(rhs[i+2], r2[:len(r2)-(i-c)-2], x[max(0, i+2-b):c])
		s3 := rhs[i+3]
		xs := x[c:i]
		q0, q1 := r0[len(r0)-len(xs):], r1[len(r1)-len(xs)-1:][:len(xs)]
		q2, q3 := r2[len(r2)-len(xs)-2:][:len(xs)], r3[:len(xs)]
		for k, xk := range xs {
			s0 -= float64(q0[k] * xk)
			s1 -= float64(q1[k] * xk)
			s2 -= float64(q2[k] * xk)
			s3 -= float64(q3[k] * xk)
		}
		t1, t2, t3 := r1[len(r1)-1:], r2[len(r2)-2:], r3[len(r3)-3:]
		s1 -= float64(t1[0] * s0)
		s2 -= float64(t2[0] * s0)
		s2 -= float64(t2[1] * s1)
		s3 -= float64(t3[0] * s0)
		s3 -= float64(t3[1] * s1)
		s3 -= float64(t3[2] * s2)
		x[i], x[i+1], x[i+2], x[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		x[i] = subDot(rhs[i], lower(i), x[max(0, i-b):i])
	}
	for i := range n {
		x[i] /= v[i*w+b]
	}
	h := n - 1
	for ; blocks && h >= 3; h -= 4 {
		// Rows h … h−3 share columns a … h−4.
		a := max(0, h-b)
		r0, r1, r2, r3 := lower(h), lower(h-1), lower(h-2), lower(h-3)
		t0, t1, t2 := r0[len(r0)-3:], r1[len(r1)-2:], r2[len(r2)-1:]
		x0 := x[h]
		x1 := x[h-1]
		x1 -= float64(t0[2] * x0)
		x2 := x[h-2]
		x2 -= float64(t0[1] * x0)
		x2 -= float64(t1[1] * x1)
		x3 := x[h-3]
		x3 -= float64(t0[0] * x0)
		x3 -= float64(t1[0] * x1)
		x3 -= float64(t2[0] * x2)
		x[h-1], x[h-2], x[h-3] = x1, x2, x3
		xs := x[a : h-3]
		q0, q1 := r0[:len(xs)], r1[len(r1)-len(xs)-2:][:len(xs)]
		q2, q3 := r2[len(r2)-len(xs)-1:][:len(xs)], r3[len(r3)-len(xs):]
		for k, t := range xs {
			t -= float64(q0[k] * x0)
			t -= float64(q1[k] * x1)
			t -= float64(q2[k] * x2)
			t -= float64(q3[k] * x3)
			xs[k] = t
		}
		// The columns left of a that only the lower three rows reach.
		axpySub(x[max(0, h-1-b):a], r1, x1)
		axpySub(x[max(0, h-2-b):a], r2, x2)
		axpySub(x[max(0, h-3-b):a], r3, x3)
	}
	for ; h >= 0; h-- {
		axpySub(x[max(0, h-b):h], lower(h), x[h])
	}
}

// subDot returns s − Σ l[k]·x[k], subtracting in ascending k; x holds at
// least len(l) values.
func subDot(s float64, l, x []float64) float64 {
	x = x[:len(l)]
	for k, lk := range l {
		s -= float64(lk * x[k])
	}
	return s
}

// axpySub subtracts l[k]·xi from each x[k]; l holds at least len(x) values.
func axpySub(x, l []float64, xi float64) {
	l = l[:len(x)]
	for k, lk := range l {
		x[k] -= float64(lk * xi)
	}
}
