package linalg

import (
	"fmt"
	"math"
)

// Banded is a square banded matrix with equal lower and upper bandwidth b:
// entries A[i][j] with |i-j| > b are structurally zero. Storage is
// diagonal-major: row i keeps its 2b+1 band entries contiguously, so
// factorization and solve run in O(n·b²) and O(n·b).
//
// The two-rail ladders of the lumped TTSV models (Models A and B) have
// bandwidth 2 under their natural node ordering, which makes this the
// asymptotically right direct solver for them.
type Banded struct {
	n, b int
	// data[i*(2b+1) + (j-i+b)] holds A[i][j].
	data []float64
}

// NewBanded returns a zeroed n×n banded matrix with bandwidth b ≥ 0.
func NewBanded(n, b int) *Banded {
	if n <= 0 || b < 0 {
		panic(fmt.Sprintf("linalg: invalid banded dimensions n=%d b=%d", n, b))
	}
	if b >= n {
		b = n - 1
	}
	return &Banded{n: n, b: b, data: make([]float64, n*(2*b+1))}
}

// N returns the matrix dimension.
func (m *Banded) N() int { return m.n }

// Bandwidth returns the (half) bandwidth.
func (m *Banded) Bandwidth() int { return m.b }

func (m *Banded) idx(i, j int) (int, bool) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("linalg: banded index (%d,%d) out of range for n=%d", i, j, m.n))
	}
	d := j - i
	if d < -m.b || d > m.b {
		return 0, false
	}
	return i*(2*m.b+1) + d + m.b, true
}

// At returns A[i][j] (zero outside the band).
func (m *Banded) At(i, j int) float64 {
	k, ok := m.idx(i, j)
	if !ok {
		return 0
	}
	return m.data[k]
}

// Add accumulates v at (i, j); it panics when (i, j) lies outside the band,
// which in assembly code indicates a wrong bandwidth estimate.
func (m *Banded) Add(i, j int, v float64) {
	k, ok := m.idx(i, j)
	if !ok {
		panic(fmt.Sprintf("linalg: banded entry (%d,%d) outside bandwidth %d", i, j, m.b))
	}
	m.data[k] += v
}

// MulVec returns A·x.
func (m *Banded) MulVec(x []float64) []float64 {
	if len(x) != m.n {
		panic(fmt.Sprintf("linalg: banded MulVec dimension mismatch %d vs %d", len(x), m.n))
	}
	y := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		lo := max(0, i-m.b)
		hi := min(m.n-1, i+m.b)
		var s float64
		row := m.data[i*(2*m.b+1):]
		for j := lo; j <= hi; j++ {
			s += row[j-i+m.b] * x[j]
		}
		y[i] = s
	}
	return y
}

// SolveBanded solves A·x = b with a one-shot LU factorization (see
// Factorize to reuse the factorization across right-hand sides). It returns
// ErrSingular on a (near-)zero pivot. The receiver is not modified.
func (m *Banded) SolveBanded(rhs []float64) ([]float64, error) {
	f, err := m.Factorize()
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BandedLU is a reusable LU factorization of a banded matrix, for solves
// against many right-hand sides (e.g. every step of a transient
// integration).
type BandedLU struct {
	n, b int
	lu   []float64
}

// Factorize computes the banded LU factorization (no pivoting; stable for
// the diagonally dominant/SPD systems assembled in this repository).
func (m *Banded) Factorize() (*BandedLU, error) {
	n, b := m.n, m.b
	w := 2*b + 1
	lu := make([]float64, len(m.data))
	copy(lu, m.data)
	var scale float64
	for _, v := range lu {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero banded matrix", ErrSingular)
	}
	tiny := scale * 1e-300
	for k := 0; k < n; k++ {
		pk := lu[k*w+b]
		if math.Abs(pk) <= tiny {
			return nil, fmt.Errorf("%w: banded pivot %d (|pivot|=%g)", ErrSingular, k, math.Abs(pk))
		}
		for i := k + 1; i <= min(n-1, k+b); i++ {
			kIdx := i*w + (k - i + b)
			mult := lu[kIdx] / pk
			lu[kIdx] = mult
			if mult == 0 {
				continue
			}
			for j := k + 1; j <= min(n-1, k+b); j++ {
				lu[i*w+(j-i+b)] -= mult * lu[k*w+(j-k+b)]
			}
		}
	}
	return &BandedLU{n: n, b: b, lu: lu}, nil
}

// Solve solves A·x = rhs using the factorization; rhs is not modified.
func (f *BandedLU) Solve(rhs []float64) ([]float64, error) {
	if len(rhs) != f.n {
		return nil, fmt.Errorf("linalg: banded LU solve dimension mismatch %d vs %d", len(rhs), f.n)
	}
	n, b, w := f.n, f.b, 2*f.b+1
	x := make([]float64, n)
	copy(x, rhs)
	for k := 0; k < n; k++ {
		for i := k + 1; i <= min(n-1, k+b); i++ {
			x[i] -= f.lu[i*w+(k-i+b)] * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j <= min(n-1, i+b); j++ {
			s -= f.lu[i*w+(j-i+b)] * x[j]
		}
		x[i] = s / f.lu[i*w+b]
	}
	return x, nil
}
