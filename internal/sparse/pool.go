package sparse

// Parallel, deterministic linear-algebra kernels.
//
// Every kernel runs over a fixed grid of row chunks whose boundaries depend
// only on the vector length — never on the worker count — and every
// reduction (dot, norm2) sums one partial per chunk, combined in chunk-index
// order by the caller. A chunk is always processed by exactly one worker
// with a plain sequential loop, so each kernel has a single well-defined
// floating-point evaluation order: results are bit-identical for any worker
// count, including the sequential path, which walks the same chunk grid.
//
// Dispatch is closure-free on both paths. The parallel path stores the
// pending kernel's kind and operands in the pool's reusable job struct and
// ships plain chunk-span values over a channel; workers switch on the kind
// and run the span loops directly. The earlier design sent a function
// literal per worker per kernel call, and with hundreds of kernel calls per
// solve those escaping closures dominated the multi-worker allocation
// profile (thousands of allocs per solve vs double digits sequentially).
// A pool serves one solve at a time, so a single job struct suffices: the
// channel send orders the operand writes before the workers' reads, and
// wg.Wait orders the workers' results before the caller continues.

import (
	"math"
	"sync"
)

// chunkLen is the fixed row-chunk size of the parallel kernels. It must not
// depend on the worker count or the environment: chunk boundaries are part
// of the numerical contract (they fix the reduction order).
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

// kernelKind enumerates the span loops the workers can run; see runChunk.
type kernelKind uint8

const (
	kernDot kernelKind = iota
	kernMulVec
	kernMulVecDot
	kernResidual
	kernCGUpdate
	kernXpby
	kernRawMulVec
	kernRawMulVecAdd
	kernVecAdd
	kernChebyBegin
	kernChebyStep
	kernLineSolve
	kernBody
)

// kernelJob holds one kernel dispatch: the kind plus every operand any kind
// needs. It lives on the pool and is overwritten per call — never allocated —
// and cleared after the call so pooled vectors stay collectable.
type kernelJob struct {
	kind kernelKind
	n    int
	op   Operator
	ptr  []int32
	col  []int32
	// v1..v5 are the vector operands; their role depends on the kind (e.g.
	// for kernResidual: v1 = x, v2 = b, v3 = r).
	v1, v2, v3, v4, v5 []float64
	// nd and axis carry the grid shape of the line-solve kinds.
	nd     [3]int
	axis   int
	s1, s2 float64
	body   func(lo, hi int)
}

// spanRange is a contiguous run of chunk indices assigned to one worker.
type spanRange struct{ c0, c1 int }

// Pool is a reusable set of kernel workers for the iterative solvers. A nil
// Pool and a one-worker Pool both run every kernel inline on the calling
// goroutine. Pools may be reused across solves (e.g. the many steps of a
// transient integration) but serve one solve at a time: methods must not be
// called concurrently.
type Pool struct {
	workers  int
	spans    chan spanRange
	wg       sync.WaitGroup
	job      kernelJob
	partials []float64 // per-chunk reduction scratch, grown on demand
	scratch  [][]float64
	closed   bool
}

// NewPool returns a pool with the given worker count; values < 1 select the
// sequential single-worker pool, which spawns no goroutines. Close must be
// called to release the workers of a parallel pool.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.spans = make(chan spanRange)
		for w := 1; w < workers; w++ {
			go func() {
				for t := range p.spans {
					for c := t.c0; c < t.c1; c++ {
						p.runChunk(c)
					}
					p.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool's worker count (at least 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// seq reports whether every kernel runs inline on the calling goroutine,
// selecting the closure-free sequential fast paths.
func (p *Pool) seq() bool { return p == nil || p.workers <= 1 }

// Close releases the pool's workers. It is safe to call on a nil or
// sequential pool, and more than once.
func (p *Pool) Close() {
	if p == nil || p.spans == nil || p.closed {
		return
	}
	p.closed = true
	close(p.spans)
}

// Grab returns a length-n float64 slice from the pool's scratch free-list,
// allocating when nothing fits. The contents are UNDEFINED: callers must
// fully overwrite the slice before reading it (the CG scratch vectors all
// qualify — each is written before its first read). A nil pool allocates.
// Like every Pool method, Grab/Release serve one solve at a time.
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
// later solve on the same pool. A nil pool drops them for the GC.
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

// runChunk executes the current job on chunk c. Reduction kinds store their
// partial into partials[c]; the caller combines partials in chunk order.
func (p *Pool) runChunk(c int) {
	j := &p.job
	lo, hi := chunkSpan(c, j.n)
	switch j.kind {
	case kernDot:
		p.partials[c] = dotSpan(j.v1, j.v2, lo, hi)
	case kernMulVec:
		j.op.SpanMulVec(j.v1, j.v2, lo, hi)
	case kernMulVecDot:
		p.partials[c] = j.op.SpanMulVecDot(j.v1, j.v2, j.v3, lo, hi)
	case kernResidual:
		j.op.SpanResidual(j.v1, j.v2, j.v3, lo, hi)
	case kernCGUpdate:
		p.partials[c] = cgUpdateSpan(j.v1, j.v2, j.v3, j.v4, j.s1, lo, hi)
	case kernXpby:
		xpbySpan(j.v1, j.v2, j.s1, lo, hi)
	case kernRawMulVec:
		rawMulVecSpan(j.ptr, j.col, j.v1, j.v2, j.v3, lo, hi)
	case kernRawMulVecAdd:
		rawMulVecAddSpan(j.ptr, j.col, j.v1, j.v2, j.v3, lo, hi)
	case kernVecAdd:
		vecAddSpan(j.v1, j.v2, lo, hi)
	case kernChebyBegin:
		chebyBeginSpan(j.v1, j.v2, j.v3, j.v4, j.v5, j.s1, lo, hi)
	case kernChebyStep:
		chebyStepSpan(j.v1, j.v2, j.v3, j.v4, j.v5, j.s1, j.s2, lo, hi)
	case kernLineSolve:
		lineSolveSpan(j.nd, j.axis, j.v1, j.v2, j.v3, j.v4, lo, hi)
	case kernBody:
		j.body(lo, hi)
	}
}

// run executes the job stored in p.job over every chunk of the grid for
// length n, spreading contiguous chunk spans across the workers. The chunk
// grid — and therefore the work each chunk performs — is identical for any
// worker count; only the assignment of chunks to OS threads varies. Callers
// must have filled p.job (except n, set here); run clears it before
// returning. Only the parallel path reaches run: the sequential fast paths
// in each kernel method never touch the job struct.
func (p *Pool) run(n int) {
	p.job.n = n
	nc := numChunks(n)
	w := p.workers
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			p.runChunk(c)
		}
	} else {
		p.wg.Add(w - 1)
		for i := 1; i < w; i++ {
			p.spans <- spanRange{c0: i * nc / w, c1: (i + 1) * nc / w}
		}
		for c := 0; c < nc/w; c++ {
			p.runChunk(c)
		}
		p.wg.Wait()
	}
	p.job = kernelJob{}
}

// runReduce is run for reduction kinds: it sizes the per-chunk partial
// buffer, executes the job, and combines the partials in chunk-index order.
func (p *Pool) runReduce(n int) float64 {
	nc := numChunks(n)
	if cap(p.partials) < nc {
		p.partials = make([]float64, nc)
	}
	p.partials = p.partials[:nc]
	p.run(n)
	var s float64
	for _, v := range p.partials {
		s += v
	}
	return s
}

// Span loops. Each holds the single floating-point evaluation order of its
// kernel; both the sequential and the parallel dispatch run these exact
// loops over the same chunk grid.

func dotSpan(a, b []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

func mulVecSpan(m *CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

func mulVecDotSpan(m *CSR, x, y, w []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		var yi float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			yi += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = yi
		s += w[i] * yi
	}
	return s
}

func residualSpan(m *CSR, x, b, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		r[i] = b[i] - s
	}
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

func xpbySpan(d, z []float64, beta float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] = z[i] + beta*d[i]
	}
}

func rawMulVecSpan(ptr, col []int32, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := ptr[i]; k < ptr[i+1]; k++ {
			s += val[k] * x[col[k]]
		}
		y[i] = s
	}
}

func rawMulVecAddSpan(ptr, col []int32, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := ptr[i]; k < ptr[i+1]; k++ {
			s += val[k] * x[col[k]]
		}
		y[i] += s
	}
}

func vecAddSpan(dst, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] += src[i]
	}
}

func chebyBeginSpan(z, d, res, invD, r []float64, invTheta float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		rh := invD[i] * r[i]
		res[i] = rh
		di := rh * invTheta
		d[i] = di
		z[i] = di
	}
}

func chebyStepSpan(z, d, res, invD, t []float64, c1, c2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := res[i] - invD[i]*t[i] // res -= B·d (previous correction)
		res[i] = ri
		di := c1*d[i] + c2*ri
		d[i] = di
		z[i] += di
	}
}

// lineBase resolves the traversal of grid lines along an axis: the
// element stride within a line, the line length, and the base cell of line t.
// Lines enumerate the cells of the perpendicular plane in ascending index
// order, so line t's base follows from t and the grid shape alone.
func lineBase(nd [3]int, axis, t int) (base, stride, length int) {
	nx := nd[0]
	switch axis {
	case 0:
		return t * nx, 1, nx
	case 1:
		nxy := nx * nd[1]
		return t/nx*nxy + t%nx, nx, nd[1]
	default:
		return t, nx * nd[1], nd[2]
	}
}

func lineSolveSpan(nd [3]int, axis int, l, invc, r, x []float64, lo, hi int) {
	for t := lo; t < hi; t++ {
		i, s, length := lineBase(nd, axis, t)
		// LDLᵀ backsolve of the line's tridiagonal block: forward substitution
		// (I+L)y = r, then x = (I+Lᵀ)⁻¹C⁻¹y walking back down the line.
		x[i] = r[i]
		for k := 1; k < length; k++ {
			i += s
			x[i] = r[i] - l[i]*x[i-s]
		}
		x[i] *= invc[i]
		for k := length - 2; k >= 0; k-- {
			i -= s
			x[i] = x[i]*invc[i] - l[i+s]*x[i+s]
		}
	}
}

// dot computes a·b with chunked ordered reduction.
func (p *Pool) dot(a, b []float64) float64 {
	if p.seq() {
		var s float64
		for c, nc := 0, numChunks(len(a)); c < nc; c++ {
			lo, hi := chunkSpan(c, len(a))
			s += dotSpan(a, b, lo, hi)
		}
		return s
	}
	p.job = kernelJob{kind: kernDot, v1: a, v2: b}
	return p.runReduce(len(a))
}

// norm2 computes ||v||₂ with chunked ordered reduction. dot(v, v) performs
// the exact per-chunk summation the dedicated closure used to.
func (p *Pool) norm2(v []float64) float64 { return math.Sqrt(p.dot(v, v)) }

// mulVec computes y = A·x across the pool. Rows are independent, so the
// result is exact regardless of chunking.
func (p *Pool) mulVec(m Operator, x, y []float64) {
	if p.seq() {
		m.SpanMulVec(x, y, 0, m.Rows())
		return
	}
	p.job = kernelJob{kind: kernMulVec, op: m, v1: x, v2: y}
	p.run(m.Rows())
}

// mulVecDot fuses y = A·x with the reduction dot(w, y), saving one pass over
// the vectors per CG iteration.
func (p *Pool) mulVecDot(m Operator, x, y, w []float64) float64 {
	n := m.Rows()
	if p.seq() {
		var s float64
		for c, nc := 0, numChunks(n); c < nc; c++ {
			lo, hi := chunkSpan(c, n)
			s += m.SpanMulVecDot(x, y, w, lo, hi)
		}
		return s
	}
	p.job = kernelJob{kind: kernMulVecDot, op: m, v1: x, v2: y, v3: w}
	return p.runReduce(n)
}

// residualFrom computes r = b - A·x across the pool.
func (p *Pool) residualFrom(m Operator, x, b, r []float64) {
	if p.seq() {
		m.SpanResidual(x, b, r, 0, m.Rows())
		return
	}
	p.job = kernelJob{kind: kernResidual, op: m, v1: x, v2: b, v3: r}
	p.run(m.Rows())
}

// cgUpdate fuses the CG solution/residual updates x += α·d, r -= α·ad with
// the reduction dot(r, r) over the updated residual.
func (p *Pool) cgUpdate(x, r, d, ad []float64, alpha float64) float64 {
	if p.seq() {
		var s float64
		for c, nc := 0, numChunks(len(x)); c < nc; c++ {
			lo, hi := chunkSpan(c, len(x))
			s += cgUpdateSpan(x, r, d, ad, alpha, lo, hi)
		}
		return s
	}
	p.job = kernelJob{kind: kernCGUpdate, v1: x, v2: r, v3: d, v4: ad, s1: alpha}
	return p.runReduce(len(x))
}

// xpby computes d = z + β·d (the CG direction update).
func (p *Pool) xpby(d, z []float64, beta float64) {
	if p.seq() {
		xpbySpan(d, z, beta, 0, len(d))
		return
	}
	p.job = kernelJob{kind: kernXpby, v1: d, v2: z, s1: beta}
	p.run(len(d))
}

// Range runs body(lo, hi) over the fixed deterministic chunk grid for
// length n, spreading the chunks across the pool's workers. Chunk boundaries
// depend only on n — never on the worker count — and each chunk is processed
// by exactly one worker with a plain sequential loop, so any computation
// whose chunks are independent (element-wise updates, per-row sums) is
// bit-identical for any worker count. A nil pool runs sequentially over the
// same grid. It exists for external deterministic kernels; note that the
// body closure escapes to the heap on every call, so hot per-iteration loops
// should use a dedicated kernel method (VecAdd, MulVecOp, ChebyStep, ...)
// instead. Reductions that must combine partials stay inside this package.
func (p *Pool) Range(n int, body func(lo, hi int)) {
	if p.seq() {
		for c, nc := 0, numChunks(n); c < nc; c++ {
			lo, hi := chunkSpan(c, n)
			body(lo, hi)
		}
		return
	}
	p.job = kernelJob{kind: kernBody, body: body}
	p.run(n)
}

// VecAdd computes dst[i] += src[i] across the pool — element-wise, so
// bit-identical for any worker count. A nil pool runs sequentially.
func (p *Pool) VecAdd(dst, src []float64) {
	if p.seq() {
		vecAddSpan(dst, src, 0, len(dst))
		return
	}
	p.job = kernelJob{kind: kernVecAdd, v1: dst, v2: src}
	p.run(len(dst))
}

// MulVecRaw computes y = M·x for a raw CSR triple (row pointers, column
// indices, values) that is not wrapped in a *CSR — the multigrid transfer
// operators store their prolongator and its transpose this way. Per-row sums
// accumulate in index order within one worker, so the result is bit-identical
// for any worker count. A nil pool runs sequentially.
func (p *Pool) MulVecRaw(ptr, col []int32, val, x, y []float64) {
	n := len(ptr) - 1
	if p.seq() {
		rawMulVecSpan(ptr, col, val, x, y, 0, n)
		return
	}
	p.job = kernelJob{kind: kernRawMulVec, ptr: ptr, col: col, v1: val, v2: x, v3: y}
	p.run(n)
}

// MulVecAddRaw computes y += M·x for a raw CSR triple; see MulVecRaw.
func (p *Pool) MulVecAddRaw(ptr, col []int32, val, x, y []float64) {
	n := len(ptr) - 1
	if p.seq() {
		rawMulVecAddSpan(ptr, col, val, x, y, 0, n)
		return
	}
	p.job = kernelJob{kind: kernRawMulVecAdd, ptr: ptr, col: col, v1: val, v2: x, v3: y}
	p.run(n)
}

// ChebyBegin runs the first step of the Chebyshev semi-iteration on
// B·z = D⁻¹r from z = 0: res = D⁻¹r, d = res/θ, z = d. Fused and
// element-wise, so bit-identical for any worker count. Shared by the
// standalone Chebyshev preconditioner and the multigrid smoother.
func (p *Pool) ChebyBegin(z, d, res, invD, r []float64, invTheta float64) {
	if p.seq() {
		chebyBeginSpan(z, d, res, invD, r, invTheta, 0, len(r))
		return
	}
	p.job = kernelJob{kind: kernChebyBegin, v1: z, v2: d, v3: res, v4: invD, v5: r, s1: invTheta}
	p.run(len(r))
}

// ChebyStep runs one subsequent step of the Chebyshev semi-iteration given
// t = A·d: res -= D⁻¹t, d = c1·d + c2·res, z += d. See ChebyBegin.
func (p *Pool) ChebyStep(z, d, res, invD, t []float64, c1, c2 float64) {
	if p.seq() {
		chebyStepSpan(z, d, res, invD, t, c1, c2, 0, len(res))
		return
	}
	p.job = kernelJob{kind: kernChebyStep, v1: z, v2: d, v3: res, v4: invD, v5: t, s1: c1, s2: c2}
	p.run(len(res))
}

// LineSolve computes x = T⁻¹r for the tridiagonal block-diagonal matrix T
// whose blocks are the grid lines along the given axis of an nd-shaped grid
// (fastest-varying axis first), given the lines' LDLᵀ factors: l[i] the
// unit-lower-triangular entry of row i coupling it to the previous cell on
// its line, invc[i] the inverse pivot. Lines are independent and each is
// solved by one worker with a fixed-order recurrence, so the result is
// bit-identical for any worker count — the line relaxation of the geometric
// multigrid smoother. x must not alias r. A nil pool runs sequentially.
func (p *Pool) LineSolve(nd [3]int, axis int, l, invc, r, x []float64) {
	lines := len(r) / nd[axis]
	if p.seq() {
		lineSolveSpan(nd, axis, l, invc, r, x, 0, lines)
		return
	}
	p.job = kernelJob{kind: kernLineSolve, nd: nd, axis: axis, v1: l, v2: invc, v3: r, v4: x}
	p.run(lines)
}

// MulVecOp computes y = A·x for any Operator across the pool's workers. The
// result is bitwise identical for any worker count (rows are independent; no
// reduction is involved). A nil pool runs sequentially.
func (p *Pool) MulVecOp(a Operator, x, y []float64) {
	if len(x) != a.Cols() || len(y) != a.Rows() {
		panic("sparse: MulVecOp dimension mismatch")
	}
	p.mulVec(a, x, y)
}

// ResidualOp computes r = b - A·x for any Operator across the pool's
// workers. The matvec and subtraction are fused per row; each row's sum
// accumulates in ascending column order, so the result is bit-identical to
// MulVecOp followed by an element-wise subtraction, for any worker count.
// A nil pool runs sequentially.
func (p *Pool) ResidualOp(a Operator, x, b, r []float64) {
	if len(x) != a.Cols() || len(b) != a.Rows() || len(r) != a.Rows() {
		panic("sparse: ResidualOp dimension mismatch")
	}
	p.residualFrom(a, x, b, r)
}

// MulVecParallel computes y = A·x across the pool's workers, reusing y when
// it has the right length. The result is bitwise identical to MulVec for
// any worker count (rows are independent; no reduction is involved). A nil
// pool runs sequentially.
func (m *CSR) MulVecParallel(p *Pool, x, y []float64) []float64 {
	if len(x) != m.cols {
		panic("sparse: MulVecParallel dimension mismatch")
	}
	if len(y) != m.rows {
		y = make([]float64, m.rows)
	}
	p.mulVec(m, x, y)
	return y
}

// ResidualParallel computes r = b - A·x across the pool's workers. The
// matvec and subtraction are fused per row; each row's sum accumulates in
// index order, so the result is bit-identical to MulVecParallel followed by
// an element-wise subtraction, for any worker count. A nil pool runs
// sequentially.
func (m *CSR) ResidualParallel(p *Pool, x, b, r []float64) {
	if len(x) != m.cols || len(b) != m.rows || len(r) != m.rows {
		panic("sparse: ResidualParallel dimension mismatch")
	}
	p.residualFrom(m, x, b, r)
}
