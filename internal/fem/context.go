package fem

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/mg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// SolveContext carries the reusable state of one assembly shape (see
// asmKey) across repeated solves: its assembly (stencil coefficient arrays
// refilled in place), either a banded LDLᵀ factor or a multigrid hierarchy
// together with a snapshot of the coefficients it was built from, and a
// scratch pool of CG work vectors. A solve of another shape drops that state
// and re-keys the context. Callers that want to own the state pass a context
// to the *With functions; a nil context there means the package's bounded
// list of idle contexts (see idle), one taken for the problem's shape and
// returned after the solve.
//
// None of it is visible in the results: a solve through a context is
// bit-identical to the same solve through a new one, because the reuse paths
// run the exact machinery of the fresh paths and only recycle memory.
//
// A SolveContext is not safe for concurrent use: it serves one solve at a
// time.
type SolveContext struct {
	key  asmKey
	asm  *assembly
	f    *linalg.Band
	h    *mg.Hierarchy
	buf  []float64 // storage from the free list: f's band, if any, then vals
	vals []float64 // the coefficients f or h was built from, end to end
	pool sparse.Pool
}

// NewSolveContext returns an empty context ready for reuse.
func NewSolveContext() *SolveContext { return &SolveContext{} }

// Close empties the context and returns its factor storage to the shared
// free list. The context remains usable; a later solve starts cold.
func (sc *SolveContext) Close() {
	if sc == nil {
		return
	}
	releaseBand(sc.buf)
	*sc = SolveContext{}
}

// assemble returns the context's assembly after fill has (re)assembled the
// problem into it, first re-keying the context to key when it holds
// another shape or none. The diagonal and right-hand side accumulate, so
// they are zeroed first; the off-diagonals are assigned outright by every
// fill. A new assembly is kept only once its first fill succeeds. The
// fem.assemble.pattern.* counters record refills (hits) against fresh
// allocations (misses).
func (sc *SolveContext) assemble(key asmKey, dims []int, fill func(*assembly) error) (*assembly, error) {
	asm := sc.asm
	if asm != nil && sc.key == key {
		obs.Default().Counter("fem.assemble.pattern.hits").Inc()
	} else {
		obs.Default().Counter("fem.assemble.pattern.misses").Inc()
		sc.Close()
		sc.key = key
		var err error
		if asm, err = newAssembly(key, dims); err != nil {
			return nil, err
		}
	}
	diag, _ := asm.op.Coeffs()
	clear(diag)
	clear(asm.rhs)
	if err := fill(asm); err != nil {
		return nil, err
	}
	sc.asm = asm
	return asm, nil
}

// hierarchyFor returns a multigrid hierarchy for the context's stencil a:
// the held one when its coefficient snapshot matches a bit for bit
// (repeated solves of one design point), a fresh build otherwise, which
// replaces a held factor.
func (sc *SolveContext) hierarchyFor(a *sparse.Stencil) (*mg.Hierarchy, error) {
	if sc.h != nil && sameCoeffs(sc.vals, a) {
		obs.Default().Counter("fem.mg.reuse.hits").Inc()
		return sc.h, nil
	}
	h, err := mg.Build(a)
	if err != nil {
		return nil, err
	}
	sc.f = nil
	sc.reserve(snapshotLen(a))
	sc.h, sc.vals = h, snapshot(sc.buf[:0], a)
	return h, nil
}

// factorFor returns a banded LDLᵀ factor of the context's stencil a. A held
// factor whose coefficient snapshot matches a bit for bit is served
// untouched (reused); a changed operator is refactored into the same
// storage, which replaces a held hierarchy. The fem.direct.factors counter
// records factorizations, fem.direct.reuse.hits the factors served again.
func (sc *SolveContext) factorFor(a *sparse.Stencil) (f *linalg.Band, reused bool, err error) {
	if sc.f != nil && sameCoeffs(sc.vals, a) {
		obs.Default().Counter("fem.direct.reuse.hits").Inc()
		return sc.f, true, nil
	}
	band := sparse.CholeskyLen(a)
	sc.h = nil
	sc.reserve(band + snapshotLen(a))
	obs.Default().Counter("fem.direct.factors").Inc()
	if sc.f, err = sparse.FactorCholesky(a, sc.buf[:band]); err != nil {
		sc.f = nil
		return nil, false, err
	}
	sc.vals = snapshot(sc.buf[band:band], a)
	return sc.f, false, nil
}

// reserve makes the context's free-list storage n floats long, trading it
// for a larger buffer from the list when it is too short. Its contents are
// undefined.
func (sc *SolveContext) reserve(n int) {
	if cap(sc.buf) < n {
		releaseBand(sc.buf)
		sc.buf = grabBand(n)
	}
	sc.buf = sc.buf[:n]
}

// bands is the process-wide free list of the contexts' factor and snapshot
// storage. Factors are large (2.6 MB at twice the default mesh), so a
// context returns its buffer here when it is closed or re-keyed, and the
// next context to factor takes it over. They stay off the CG scratch pools,
// whose first-fit Grab would hand a band to a CG vector. At most maxFreeBands buffers are kept, the
// largest released: a full list trades its smallest for a larger one, so a
// process that solved small grids first still recycles the bands of its
// larger ones.
var bands struct {
	sync.Mutex
	free [][]float64
}

const maxFreeBands = 4

// grabBand returns a length-n buffer from the free list — the smallest that
// fits — or a new one. Its contents are undefined.
func grabBand(n int) []float64 {
	bands.Lock()
	defer bands.Unlock()
	best := -1
	for i, b := range bands.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(bands.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	b := bands.free[best]
	last := len(bands.free) - 1
	bands.free[best], bands.free[last] = bands.free[last], nil
	bands.free = bands.free[:last]
	return b[:n]
}

// releaseBand returns a buffer from grabBand to the free list; nil is a
// no-op. A full list keeps the buffer in place of its smallest one if that
// is smaller, and drops whichever is left for the GC.
func releaseBand(b []float64) {
	if b == nil {
		return
	}
	bands.Lock()
	defer bands.Unlock()
	if len(bands.free) < maxFreeBands {
		bands.free = append(bands.free, b[:cap(b)])
		return
	}
	small := 0
	for i, f := range bands.free {
		if cap(f) < cap(bands.free[small]) {
			small = i
		}
	}
	if cap(b) > cap(bands.free[small]) {
		bands.free[small] = b[:cap(b)]
	}
}

// idle is the process-wide list of idle contexts that every solve given a
// nil context draws on, ReferenceModel's among them, so a process that
// re-solves a geometry, or one of the same assembly shape, skips the
// allocations and, for an unchanged operator, the factor or hierarchy
// build. The list keeps the most recently returned context last; a return
// to a full list closes the oldest. The bound is fixed, not scaled with
// GOMAXPROCS: it caps what a stream of distinct geometries (a daemon's
// requests) can keep alive, while covering the few shapes one process
// interleaves. Taken contexts are exclusive to their solve, so concurrent
// solves of one shape each get their own. The fem.idle.hits, .misses and
// .evictions counters record it.
var idle struct {
	sync.Mutex
	list []*SolveContext
}

const maxIdleContexts = 8

// takeIdle removes and returns the most recently returned idle context for
// key, or a new one keyed to it.
func takeIdle(key asmKey) *SolveContext {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if sc := idle.list[i]; sc.key == key {
			idle.list = removeIdle(idle.list, i)
			obs.Default().Counter("fem.idle.hits").Inc()
			return sc
		}
	}
	obs.Default().Counter("fem.idle.misses").Inc()
	return &SolveContext{key: key}
}

// putIdle returns a taken context under its key. A full list closes its
// oldest.
func putIdle(sc *SolveContext) {
	idle.Lock()
	var evicted *SolveContext
	if len(idle.list) == maxIdleContexts {
		evicted = idle.list[0]
		idle.list = removeIdle(idle.list, 0)
	}
	idle.list = append(idle.list, sc)
	idle.Unlock()
	if evicted != nil {
		evicted.Close()
		obs.Default().Counter("fem.idle.evictions").Inc()
	}
}

// removeIdle deletes entry i, keeping the order, and clears the vacated
// last slot so the backing array does not keep its context alive.
func removeIdle(l []*SolveContext, i int) []*SolveContext {
	copy(l[i:], l[i+1:])
	l[len(l)-1] = nil
	return l[:len(l)-1]
}

// snapshotLen is the length of a's coefficient snapshot.
func snapshotLen(a *sparse.Stencil) int { return a.Rows() * (1 + len(a.Dims())) }

// snapshot appends a's coefficient arrays end to end to dst — the layout
// sameCoeffs compares against.
func snapshot(dst []float64, a *sparse.Stencil) []float64 {
	diag, off := a.Coeffs()
	for _, part := range [...][]float64{diag, off[0], off[1], off[2]} {
		dst = append(dst, part...)
	}
	return dst
}

// sameCoeffs reports whether snap holds exactly a's coefficient arrays laid
// end to end, as snapshot stores them.
func sameCoeffs(snap []float64, a *sparse.Stencil) bool {
	diag, off := a.Coeffs()
	for _, part := range [...][]float64{diag, off[0], off[1], off[2]} {
		if len(part) > len(snap) {
			return false
		}
		for i, v := range part {
			if snap[i] != v {
				return false
			}
		}
		snap = snap[len(part):]
	}
	return len(snap) == 0
}
