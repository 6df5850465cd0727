package sparse

import (
	"math/rand"
	"testing"
)

// randomVec fills a length-n vector from a fixed-seed generator.
func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD builds a strictly diagonally dominant (hence SPD) sparse matrix
// with a few random off-diagonals per row.
func randomSPD(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64()
			c.Add(i, j, -v)
			c.Add(j, i, -v)
			diag[i] += v
			diag[j] += v
		}
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, diag[i]+1+rng.Float64())
	}
	return c.ToCSR()
}

// The reductions sum one partial per fixed chunk and add the partials in
// chunk order: a plain left-to-right sum would round differently on a
// vector that spans several chunks, and the golden solve hashes pin this
// order.
func TestReductionsSumPerChunkInOrder(t *testing.T) {
	// 1100 elements spans several 256-element chunks with a ragged tail.
	const n = 1100
	a := randomVec(n, 1)
	b := randomVec(n, 2)
	m := randomSPD(n, 3)
	chunked := func(term func(i int) float64) float64 {
		var s float64
		for c := 0; c < numChunks(n); c++ {
			lo, hi := chunkSpan(c, n)
			var part float64
			for i := lo; i < hi; i++ {
				part += term(i)
			}
			s += part
		}
		return s
	}
	if got, want := dot(a, b), chunked(func(i int) float64 { return a[i] * b[i] }); got != want {
		t.Errorf("dot = %.17g, want %.17g", got, want)
	}
	y := make([]float64, n)
	mv := m.MulVec(a, nil)
	if got, want := mulVecDot(m, a, y, b), chunked(func(i int) float64 { return b[i] * mv[i] }); got != want {
		t.Errorf("mulVecDot = %.17g, want %.17g", got, want)
	}
	x, r := append([]float64(nil), a...), append([]float64(nil), b...)
	rr := cgUpdate(x, r, a, b, 0.37)
	if want := chunked(func(i int) float64 { return r[i] * r[i] }); rr != want {
		t.Errorf("cgUpdate = %.17g, want %.17g", rr, want)
	}
}

// A pool must hand released scratch back to later solves and tolerate
// repeated Close calls; a nil pool allocates.
func TestPoolReuseAndClose(t *testing.T) {
	p := NewPool(4)
	v := p.Grab(600)
	p.Release(v)
	if w := p.Grab(500); &w[0] != &v[0] {
		t.Error("Grab did not reuse the released slice")
	}
	p.Close()
	p.Close()

	var nilPool *Pool
	nilPool.Release(v)
	if got := nilPool.Grab(10); len(got) != 10 {
		t.Errorf("nil pool Grab returned %d elements, want 10", len(got))
	}
}

// The chunk grid must depend only on the vector length.
func TestChunkGridFixed(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {chunkLen, 1}, {chunkLen + 1, 2}, {10 * chunkLen, 10},
	} {
		if got := numChunks(tc.n); got != tc.want {
			t.Errorf("numChunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
