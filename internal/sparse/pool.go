package sparse

// Deterministic linear-algebra kernels and the CG scratch pool.
//
// Every kernel runs on the calling goroutine. The reductions (dot, norm2 and
// the fused CG kernels) sum one partial per fixed 256-row chunk and combine
// the partials in chunk-index order, so each has a single well-defined
// floating-point evaluation order: the chunk boundaries depend only on the
// vector length, and the reference-solve golden hashes pin the sums they
// produce.

import "math"

// chunkLen is the fixed row-chunk size of the reductions. It must not depend
// on the environment: chunk boundaries are part of the numerical contract
// (they fix the reduction order).
const chunkLen = 256

// numChunks returns the size of the fixed chunk grid for length n.
func numChunks(n int) int { return (n + chunkLen - 1) / chunkLen }

// chunkSpan returns the half-open bounds of chunk c of the grid for length n.
func chunkSpan(c, n int) (lo, hi int) {
	lo = c * chunkLen
	hi = lo + chunkLen
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Pool is a scratch free-list for the iterative solvers: repeated solves on
// one pool (a sweep's points, the steps of a transient integration) reuse
// their CG work vectors instead of allocating them. A nil Pool allocates.
// A pool serves one solve at a time: methods must not be called
// concurrently.
type Pool struct {
	scratch [][]float64
}

// NewPool returns an empty pool. The argument is unused; it remains so
// existing callers keep compiling.
func NewPool(int) *Pool { return &Pool{} }

// Close is a no-op, kept for existing callers: a pool holds no goroutines.
func (p *Pool) Close() {}

// Grab returns a length-n float64 slice from the pool's scratch free-list,
// allocating when nothing fits. The contents are UNDEFINED: callers must
// fully overwrite the slice before reading it (the CG scratch vectors all
// qualify — each is written before its first read). A grabbed slice need
// not come back: one a caller keeps (a solution held as a field) is simply
// never released, and the pool allocates anew when it runs out. A nil pool
// allocates.
func (p *Pool) Grab(n int) []float64 {
	if p != nil {
		for i, s := range p.scratch {
			if cap(s) >= n {
				last := len(p.scratch) - 1
				p.scratch[i] = p.scratch[last]
				p.scratch[last] = nil
				p.scratch = p.scratch[:last]
				return s[:n]
			}
		}
	}
	return make([]float64, n)
}

// Release returns slices obtained from Grab to the free-list for reuse by a
// later solve on the same pool; the caller must not touch them afterwards.
// A nil pool drops them for the GC.
func (p *Pool) Release(vs ...[]float64) {
	if p == nil {
		return
	}
	for _, v := range vs {
		if cap(v) > 0 {
			p.scratch = append(p.scratch, v[:cap(v)])
		}
	}
}

// MulVecOp computes y = A·x for any Operator.
func (p *Pool) MulVecOp(a Operator, x, y []float64) {
	if len(x) != a.Cols() || len(y) != a.Rows() {
		panic("sparse: MulVecOp dimension mismatch")
	}
	a.SpanMulVec(x, y, 0, a.Rows())
}

// Span loops of the CG reductions.

func dotSpan(a, b []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

func cgUpdateSpan(x, r, d, ad []float64, alpha float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		x[i] += alpha * d[i]
		ri := r[i] - alpha*ad[i]
		r[i] = ri
		s += ri * ri
	}
	return s
}

// dot computes a·b, summing per chunk in chunk order.
func dot(a, b []float64) float64 {
	var s float64
	for c, nc := 0, numChunks(len(a)); c < nc; c++ {
		lo, hi := chunkSpan(c, len(a))
		s += dotSpan(a, b, lo, hi)
	}
	return s
}

// norm2 computes ||v||₂ through dot.
func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// mulVecDot fuses y = A·x with the reduction dot(w, y), saving one pass over
// the vectors per CG iteration.
func mulVecDot(m Operator, x, y, w []float64) float64 {
	n := m.Rows()
	var s float64
	for c, nc := 0, numChunks(n); c < nc; c++ {
		lo, hi := chunkSpan(c, n)
		s += m.SpanMulVecDot(x, y, w, lo, hi)
	}
	return s
}

// cgUpdate fuses the CG solution/residual updates x += α·d, r -= α·ad with
// the reduction dot(r, r) over the updated residual.
func cgUpdate(x, r, d, ad []float64, alpha float64) float64 {
	var s float64
	for c, nc := 0, numChunks(len(x)); c < nc; c++ {
		lo, hi := chunkSpan(c, len(x))
		s += cgUpdateSpan(x, r, d, ad, alpha, lo, hi)
	}
	return s
}

// xpby computes d = z + β·d (the CG direction update).
func xpby(d, z []float64, beta float64) {
	for i := range d {
		d[i] = z[i] + beta*d[i]
	}
}
