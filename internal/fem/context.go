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

// size estimates the bytes sc keeps alive: its free-list storage exactly,
// plus 8 floats per unknown for the assembly and the CG scratch, and with a
// multigrid hierarchy 24 more for its levels and, on a 3-D grid, 2·(nx+1)
// for the xy-plane factors of its z-semicoarsened levels. On the
// axisymmetric 1×–8× meshes and the 6×6×26 to 34×34×40 chip grids it is
// within 10% of the live heap a context holds. An idle context does not
// change, so neither does its size.
func (sc *SolveContext) size() int {
	floats := cap(sc.buf)
	if sc.asm != nil {
		n := sc.asm.op.Rows()
		floats += 8 * n
		if sc.h != nil {
			floats += 24 * n
			if dims := sc.asm.op.Dims(); len(dims) == 3 {
				floats += 2 * n * (dims[0] + 1)
			}
		}
	}
	return 8 * floats
}

// bands is the process-wide free list of the contexts' factor and snapshot
// storage. Factors are large (21 MB at four times the default mesh), so a
// context returns its buffer here when it is closed or re-keyed, and the
// next context to factor takes it over. They stay off the CG scratch pools,
// whose first-fit Grab would hand a band to a CG vector. The list holds at
// most maxFreeBytes, the largest buffers released: a release that
// overfills it drops its smallest buffers, the new one included if it is
// the smallest, so a process that solved small grids first still recycles
// the bands of its larger ones. A buffer larger than the bound is never
// kept.
var bands struct {
	sync.Mutex
	free  [][]float64
	bytes int // the sum of the free buffers' capacities, in bytes
}

// maxFreeBytes bounds the free list. It holds the 21 MB band and snapshot
// of a 4× axisymmetric reference, so cold 4× solves recycle it.
const maxFreeBytes = 32 << 20

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
	return removeBand(best)[:n]
}

// releaseBand returns a buffer from grabBand to the free list; nil is a
// no-op. A list over maxFreeBytes drops its smallest buffers for the GC
// until it fits.
func releaseBand(b []float64) {
	if b == nil || 8*cap(b) > maxFreeBytes {
		return
	}
	bands.Lock()
	defer bands.Unlock()
	bands.free = append(bands.free, b[:cap(b)])
	bands.bytes += 8 * cap(b)
	for bands.bytes > maxFreeBytes {
		small := 0
		for i, f := range bands.free {
			if cap(f) < cap(bands.free[small]) {
				small = i
			}
		}
		removeBand(small)
	}
}

// removeBand deletes and returns free buffer i, moving the last into its
// slot, and takes its bytes off the list's total. The caller holds bands.
func removeBand(i int) []float64 {
	l := bands.free
	b, last := l[i], len(l)-1
	l[i], l[last] = l[last], nil
	bands.free = l[:last]
	bands.bytes -= 8 * cap(b)
	return b
}

// idle is the process-wide list of idle contexts that every solve given a
// nil context draws on, ReferenceModel's among them, so a process that
// re-solves a geometry, or one of the same assembly shape, skips the
// allocations and, for an unchanged operator, the factor or hierarchy
// build. The list keeps the most recently returned context last; a return
// that would take the contexts' sizes past maxIdleBytes closes the oldest
// until it fits, and a context larger than the bound is closed at once.
// The bound is fixed, not scaled with GOMAXPROCS: it caps what a stream of
// distinct geometries (a daemon's requests) can keep alive, while covering
// the few shapes one process interleaves. Taken contexts are exclusive to
// their solve, so concurrent solves of one shape each get their own. The
// fem.idle.hits, .misses and .evictions counters record it.
var idle struct {
	sync.Mutex
	list  []*SolveContext
	bytes int // the sum of the listed contexts' sizes
}

// maxIdleBytes bounds the idle list: two contexts of the 4× axisymmetric
// reference (22 MB each with their factor), or a few dozen of the 1× and
// 2× grids.
const maxIdleBytes = 64 << 20

// takeIdle removes and returns the most recently returned idle context for
// key, or a new one keyed to it.
func takeIdle(key asmKey) *SolveContext {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if idle.list[i].key == key {
			obs.Default().Counter("fem.idle.hits").Inc()
			return removeIdle(i)
		}
	}
	obs.Default().Counter("fem.idle.misses").Inc()
	return &SolveContext{key: key}
}

// putIdle returns a taken context under its key, closing the oldest idle
// contexts until its size fits under maxIdleBytes, or the context itself
// when it is larger than the bound.
func putIdle(sc *SolveContext) {
	size := sc.size()
	idle.Lock()
	defer idle.Unlock()
	if size > maxIdleBytes {
		evict(sc)
		return
	}
	for idle.bytes+size > maxIdleBytes {
		evict(removeIdle(0))
	}
	idle.list = append(idle.list, sc)
	idle.bytes += size
}

// evict closes an idle context, returning its storage to the free list,
// and counts it.
func evict(sc *SolveContext) {
	sc.Close()
	obs.Default().Counter("fem.idle.evictions").Inc()
}

// removeIdle deletes and returns entry i, keeping the order, takes its
// size off the list's total and clears the vacated last slot so the
// backing array does not keep its context alive. The caller holds idle.
func removeIdle(i int) *SolveContext {
	l := idle.list
	sc := l[i]
	copy(l[i:], l[i+1:])
	l[len(l)-1] = nil
	idle.list = l[:len(l)-1]
	idle.bytes -= sc.size()
	return sc
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
