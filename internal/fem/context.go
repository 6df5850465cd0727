package fem

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/mg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// SolveContext carries reusable state across repeated solves: assemblies
// (stencil coefficient arrays refilled in place), banded LDLᵀ factors,
// multigrid hierarchies and a scratch pool of CG work vectors.
// ReferenceModel solves draw one from the package's bounded list of idle
// contexts (see idle); callers that want to own the state pass their own to
// the *With functions.
//
// None of it is visible in the results: a solve through a context is
// bit-identical to the same solve without one, because the reuse paths run
// the exact machinery of the fresh paths and only recycle memory.
//
// A SolveContext is not safe for concurrent use: it serves one solve at a
// time. The zero value of the pointer (nil) is valid everywhere and means
// "no reuse".
type SolveContext struct {
	assemblies map[asmKey]*assembly
	factors    map[asmKey]*factorEntry
	hier       map[asmKey]*hierEntry
	pool       *sparse.Pool
}

// hierEntry pairs a multigrid hierarchy with a snapshot of the stencil
// coefficients it was built from (the diagonal and each axis's off-
// diagonals, end to end), so hierarchyFor can prove the operator unchanged
// before serving the hierarchy again.
type hierEntry struct {
	h    *mg.Hierarchy
	vals []float64
}

// NewSolveContext returns an empty context ready for reuse.
func NewSolveContext() *SolveContext {
	return &SolveContext{
		assemblies: make(map[asmKey]*assembly),
		factors:    make(map[asmKey]*factorEntry),
		hier:       make(map[asmKey]*hierEntry),
	}
}

// Close drops the context's pooled scratch vectors and returns its factors'
// storage to the shared free list. The context remains usable; a later
// solve simply re-creates the pool and refactors.
func (sc *SolveContext) Close() {
	if sc == nil {
		return
	}
	sc.pool = nil
	for key, e := range sc.factors {
		releaseBand(e.buf)
		delete(sc.factors, key)
	}
}

// cachedAssembly returns the cached assembly for key, or nil when the
// caller must allocate one. The fem.assemble.pattern.* counters record
// refills (hits) against fresh allocations (misses).
func (sc *SolveContext) cachedAssembly(key asmKey) *assembly {
	if sc == nil {
		return nil
	}
	asm := sc.assemblies[key]
	if asm != nil {
		obs.Default().Counter("fem.assemble.pattern.hits").Inc()
	} else {
		obs.Default().Counter("fem.assemble.pattern.misses").Inc()
	}
	return asm
}

func (sc *SolveContext) storeAssembly(asm *assembly) {
	if sc == nil {
		return
	}
	sc.assemblies[asm.key] = asm
}

// scratch returns the context's scratch pool, which lets consecutive solves
// share their CG work vectors. Returns nil when the context is nil (each
// solve then allocates its own).
func (sc *SolveContext) scratch() *sparse.Pool {
	if sc == nil {
		return nil
	}
	if sc.pool == nil {
		sc.pool = &sparse.Pool{}
	}
	return sc.pool
}

// hierarchyFor returns a multigrid hierarchy for the stencil a assembled
// under key: the cached one when its coefficient snapshot matches a bit for
// bit (repeated solves of one design point), a fresh build otherwise.
func (sc *SolveContext) hierarchyFor(key asmKey, a *sparse.Stencil) (*mg.Hierarchy, error) {
	if sc == nil {
		return mg.Build(a)
	}
	e := sc.hier[key]
	if e != nil && sameCoeffs(e.vals, a) {
		obs.Default().Counter("fem.mg.reuse.hits").Inc()
		return e.h, nil
	}
	h, err := mg.Build(a)
	if err != nil {
		delete(sc.hier, key)
		return nil, err
	}
	if e == nil {
		e = &hierEntry{}
		sc.hier[key] = e
	}
	e.h = h
	e.vals = snapshot(e.vals[:0], a)
	return h, nil
}

// factorEntry is a cached banded LDLᵀ factor. buf, from the shared free
// list, holds the factor's band followed by vals, the snapshot of the
// coefficients it was computed from.
type factorEntry struct {
	f    *linalg.Band
	buf  []float64
	vals []float64
}

// factorFor returns a banded LDLᵀ factor of the stencil a assembled
// under key. A cached factor whose coefficient snapshot matches a bit for
// bit is served untouched (reused); a changed operator is refactored into
// the same storage. Without a context the factor's storage is borrowed from
// the shared free list and returned as borrowed, which the caller releases
// after the solve, error or not. The fem.direct.factors counter records
// factorizations, fem.direct.reuse.hits the factors served from cache.
func (sc *SolveContext) factorFor(key asmKey, a *sparse.Stencil) (f *linalg.Band, reused bool, borrowed []float64, err error) {
	band := sparse.CholeskyLen(a)
	if sc == nil {
		borrowed = grabBand(band)
		f, err = factor(a, borrowed)
		return f, false, borrowed, err
	}
	e := sc.factors[key]
	if e != nil && sameCoeffs(e.vals, a) {
		obs.Default().Counter("fem.direct.reuse.hits").Inc()
		return e.f, true, nil, nil
	}
	if e == nil {
		e = &factorEntry{buf: grabBand(band + a.Rows()*(1+len(a.Dims())))}
		sc.factors[key] = e
	}
	if e.f, err = factor(a, e.buf[:band]); err != nil {
		releaseBand(e.buf)
		delete(sc.factors, key)
		return nil, false, nil, err
	}
	e.vals = snapshot(e.buf[band:band], a)
	return e.f, false, nil, nil
}

// factor runs one counted banded LDLᵀ factorization.
func factor(a *sparse.Stencil, buf []float64) (*linalg.Band, error) {
	obs.Default().Counter("fem.direct.factors").Inc()
	return sparse.FactorCholesky(a, buf)
}

// bands is the process-wide free list of factor storage. Factors are large
// (2.6 MB at twice the default mesh) and every context-free solve needs
// one, so solves borrow and return them here, and contexts return theirs
// on Close. They stay off the CG scratch pools, whose first-fit Grab would
// hand a band to a CG vector. At most maxFreeBands buffers are kept, the
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

// idle is the process-wide list of idle contexts that ReferenceModel's
// Solve and SolveCtx draw on, so a process that re-solves a geometry, or
// one of the same assembly shape, skips the allocations and, for an
// unchanged operator, the factor or hierarchy build. Each entry serves one
// asmKey, so a context only ever holds one shape's state. The list keeps
// the most recently returned context last; a return to a full list closes
// the oldest. The bound is fixed, not scaled with GOMAXPROCS: it caps what a
// stream of distinct geometries (a daemon's requests) can keep alive, while
// covering the few shapes one process interleaves. Taken contexts are
// exclusive to their solve, so concurrent solves of one shape each get
// their own. The fem.idle.hits, .misses and .evictions counters record it.
var idle struct {
	sync.Mutex
	list []idleContext
}

type idleContext struct {
	key asmKey
	sc  *SolveContext
}

const maxIdleContexts = 8

// takeIdle removes and returns the most recently returned idle context for
// key, or a new one.
func takeIdle(key asmKey) *SolveContext {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if idle.list[i].key == key {
			sc := idle.list[i].sc
			idle.list = removeIdle(idle.list, i)
			obs.Default().Counter("fem.idle.hits").Inc()
			return sc
		}
	}
	obs.Default().Counter("fem.idle.misses").Inc()
	return NewSolveContext()
}

// putIdle returns a context taken for key. A full list closes its oldest.
func putIdle(key asmKey, sc *SolveContext) {
	idle.Lock()
	var evicted *SolveContext
	if len(idle.list) == maxIdleContexts {
		evicted = idle.list[0].sc
		idle.list = removeIdle(idle.list, 0)
	}
	idle.list = append(idle.list, idleContext{key, sc})
	idle.Unlock()
	if evicted != nil {
		evicted.Close()
		obs.Default().Counter("fem.idle.evictions").Inc()
	}
}

// removeIdle deletes entry i, keeping the order, and clears the vacated
// last slot so the backing array does not keep its context alive.
func removeIdle(l []idleContext, i int) []idleContext {
	copy(l[i:], l[i+1:])
	l[len(l)-1] = idleContext{}
	return l[:len(l)-1]
}

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
