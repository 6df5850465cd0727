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
// scratch pool of CG work vectors. Callers that want to own the state pass a
// context to the *With functions; a nil context there means one of the
// package's own, handed back after the solve.
//
// A context with no state for a problem's shape (a new one, a closed one, or
// one that holds another shape, which it hands back first) takes the idle
// context of that shape (see idle), or starts empty. A nil-context solve
// keeps the factor or hierarchy it takes; a caller's context takes only the
// storage, so its first solve builds its own (Stats.Reused is false).
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
	buf  []float64 // f's band, if any, then vals
	vals []float64 // the coefficients f or h was built from, end to end
	pool sparse.Pool
	// borrowed marks a nil-context solve's context, which takes an idle
	// factor or hierarchy too.
	borrowed bool
}

// NewSolveContext returns an empty context ready for reuse.
func NewSolveContext() *SolveContext { return &SolveContext{} }

// Close hands the context's state to the idle list and empties the context.
// The context remains usable; its next solve takes idle state like a new
// one.
func (sc *SolveContext) Close() {
	if sc == nil {
		return
	}
	if sc.asm != nil {
		putIdle(*sc)
	}
	*sc = SolveContext{borrowed: sc.borrowed}
}

// assemble returns the context's assembly after fill has (re)assembled the
// problem into it. A context with no state for key first hands back what it
// holds and takes the idle state of key. The diagonal and right-hand side
// accumulate, so they are zeroed first; the off-diagonals are assigned
// outright by every fill. A new assembly is kept only once its first fill
// succeeds. The fem.assemble.pattern.* counters record refills (hits)
// against fresh allocations (misses).
func (sc *SolveContext) assemble(key asmKey, dims []int, fill func(*assembly) error) (*assembly, error) {
	if sc.asm == nil || sc.key != key {
		sc.Close()
		sc.take(key)
	}
	asm := sc.asm
	if asm != nil {
		obs.Default().Counter("fem.assemble.pattern.hits").Inc()
	} else {
		obs.Default().Counter("fem.assemble.pattern.misses").Inc()
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

// reserve makes the context's factor and snapshot storage n floats long,
// allocating it anew when it is too short. Its contents are undefined.
func (sc *SolveContext) reserve(n int) {
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	sc.buf = sc.buf[:n]
}

// size estimates the bytes sc keeps alive: its factor and snapshot storage
// exactly, plus 8 floats per unknown for the assembly and the CG scratch,
// and with a multigrid hierarchy 24 more for its levels and, on a 3-D grid,
// 2·(nx+1) for the xy-plane factors of its z-semicoarsened levels. On the
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

// idle is the process-wide list of idle contexts, the one home of solver
// state between solves: closed caller contexts and those of nil-context
// solves, ReferenceModel's among them, go here. The list keeps the most
// recently returned context last; a return that would take the contexts'
// sizes past maxIdleBytes drops the oldest for the GC until it fits, and a
// context larger than the bound is dropped at once. The bound is fixed, not
// scaled with GOMAXPROCS: it caps what a stream of distinct geometries (a
// daemon's requests) can keep alive, while covering the few shapes one
// process interleaves. A taken context is exclusive to its taker, so
// concurrent solves of one shape each get their own. The fem.idle.hits,
// .misses and .evictions counters record it.
var idle struct {
	sync.Mutex
	list  []SolveContext
	bytes int // the sum of the listed contexts' sizes
}

// maxIdleBytes bounds the idle list: two contexts of the 4× axisymmetric
// reference (22 MB each with their factor), or a few dozen of the 1× and
// 2× grids.
const maxIdleBytes = 64 << 20

// take gives the empty sc the most recently returned idle context of
// shape key, or only the key when the list has none. A caller's context
// drops the taken factor or hierarchy and its coefficient snapshot, keeping
// the storage.
func (sc *SolveContext) take(key asmKey) {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if idle.list[i].key == key {
			obs.Default().Counter("fem.idle.hits").Inc()
			borrowed := sc.borrowed
			*sc = removeIdle(i)
			sc.borrowed = borrowed
			if !borrowed {
				sc.f, sc.h, sc.vals = nil, nil, nil
			}
			return
		}
	}
	obs.Default().Counter("fem.idle.misses").Inc()
	sc.key = key
}

// putIdle lists a context's state, dropping the oldest idle contexts until
// its size fits under maxIdleBytes, or the context itself when it is
// larger than the bound.
func putIdle(sc SolveContext) {
	size := sc.size()
	idle.Lock()
	defer idle.Unlock()
	evictions := obs.Default().Counter("fem.idle.evictions")
	if size > maxIdleBytes {
		evictions.Inc()
		return
	}
	for idle.bytes+size > maxIdleBytes {
		removeIdle(0)
		evictions.Inc()
	}
	idle.list = append(idle.list, sc)
	idle.bytes += size
}

// removeIdle deletes and returns entry i, keeping the order, takes its
// size off the list's total and clears the vacated last slot so the
// backing array does not keep its state alive. The caller holds idle.
func removeIdle(i int) SolveContext {
	l := idle.list
	sc := l[i]
	copy(l[i:], l[i+1:])
	l[len(l)-1] = SolveContext{}
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
