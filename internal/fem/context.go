package fem

import (
	"repro/internal/mg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// SolveContext carries reusable state across the repeated solves of a
// parameter sweep: assembly patterns (symbolic CSR structure + refillable
// value buffers), multigrid hierarchies, kernel worker pools with their
// scratch free-lists, and — opt-in — the previous solution of each system
// shape for warm-starting CG.
//
// Everything except WarmStart is invisible in the results: a solve through a
// context is bit-identical to the same solve without one, because the reuse
// paths run the exact machinery of the fresh paths and only recycle memory.
// WarmStart changes the CG starting point and therefore the iterate sequence
// (the solution still converges to the same tolerance), which is why it is a
// separate switch rather than part of the default reuse.
//
// A SolveContext is not safe for concurrent use: like sparse.Pool it serves
// one solve at a time. Sweep workers each own one. The zero value of the
// pointer (nil) is valid everywhere and means "no reuse".
type SolveContext struct {
	// NoReuse disables pattern, hierarchy and pool reuse, making every solve
	// behave as if it ran without a context. Mainly for A/B-testing reuse
	// itself (the equivalence property tests flip it).
	NoReuse bool
	// WarmStart seeds each solve's CG iteration with the previous solution
	// of the same system shape. Off by default: it perturbs the iterate
	// sequence, so it is excluded from the bit-identity contract above.
	WarmStart bool

	patterns map[asmKey]*pattern
	hier     map[asmKey]*hierEntry
	warm     map[asmKey][]float64
	pool     *sparse.Pool
}

// hierEntry pairs a multigrid hierarchy with a snapshot of the operator
// values it was built from, so hierarchyFor can prove the operator
// unchanged before serving the hierarchy again.
type hierEntry struct {
	h    *mg.Hierarchy
	vals []float64
}

// NewSolveContext returns an empty context ready for reuse.
func NewSolveContext() *SolveContext {
	return &SolveContext{
		patterns: make(map[asmKey]*pattern),
		hier:     make(map[asmKey]*hierEntry),
		warm:     make(map[asmKey][]float64),
	}
}

// Close releases the context's worker pool. The context remains usable;
// a later solve simply re-creates the pool.
func (sc *SolveContext) Close() {
	if sc == nil {
		return
	}
	sc.pool.Close()
	sc.pool = nil
}

// ResetWarm forgets the stored previous solutions, so the next warm-started
// solve of every shape begins cold. Sweep workers call it at warm-chain
// boundaries to keep chains — and therefore results — independent of how
// jobs were distributed over workers.
func (sc *SolveContext) ResetWarm() {
	if sc == nil {
		return
	}
	clear(sc.warm)
}

func (sc *SolveContext) reusing() bool { return sc != nil && !sc.NoReuse }

// pattern returns the cached assembly pattern for key, or nil when the
// caller must build one.
func (sc *SolveContext) pattern(key asmKey) *pattern {
	if !sc.reusing() {
		return nil
	}
	pat := sc.patterns[key]
	if pat != nil {
		obs.Default().Counter("fem.assemble.pattern.hits").Inc()
	} else {
		obs.Default().Counter("fem.assemble.pattern.misses").Inc()
	}
	return pat
}

func (sc *SolveContext) storePattern(pat *pattern) {
	if !sc.reusing() {
		return
	}
	sc.patterns[pat.key] = pat
}

// poolFor returns the context's kernel pool for the given worker count,
// creating or resizing it as needed. The pool's scratch free-list is what
// lets consecutive solves share their CG work vectors. Returns nil when the
// context is nil or reuse is off (the solver then manages its own pool).
func (sc *SolveContext) poolFor(workers int) *sparse.Pool {
	if !sc.reusing() {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if sc.pool != nil && sc.pool.Workers() == workers {
		return sc.pool
	}
	sc.pool.Close()
	sc.pool = sparse.NewPool(workers)
	return sc.pool
}

// hierarchyFor returns a multigrid hierarchy for the system (a, g) assembled
// under key. Three tiers, cheapest first:
//
//   - the cached hierarchy's operator snapshot matches a's values bit for
//     bit → serve it untouched (repeated solves of one design point);
//   - a cached hierarchy exists but the values moved → full rebuild through
//     the predecessor's recycled arena (mg.Options.Prev): every coarse
//     operator, transfer and factorization is recomputed — they all depend
//     on the operator values, so none can be kept — but without
//     allocations, and bit-identical to a fresh build;
//   - no cached hierarchy (or no context) → fresh build.
func (sc *SolveContext) hierarchyFor(key asmKey, a *sparse.CSR, g solverGrid) (*mg.Hierarchy, error) {
	if !sc.reusing() {
		return mg.Build(a, g.dims, mg.Options{})
	}
	e := sc.hier[key]
	vals := sc.operatorValues(key, a)
	if e != nil && e.h != nil && vals != nil && sameFloats(e.vals, vals) {
		obs.Default().Counter("fem.mg.reuse.hits").Inc()
		return e.h, nil
	}
	var prev *mg.Hierarchy
	if e != nil && e.h != nil {
		prev = e.h
		e.h = nil
		obs.Default().Counter("fem.mg.reuse.rebuilds").Inc()
	}
	h, err := mg.Build(a, g.dims, mg.Options{Prev: prev})
	if err != nil {
		delete(sc.hier, key)
		return nil, err
	}
	if e == nil {
		e = &hierEntry{}
		sc.hier[key] = e
	}
	e.h = h
	if vals != nil {
		e.vals = append(e.vals[:0], vals...)
	} else {
		e.vals = nil
	}
	return h, nil
}

// operatorValues returns the live value array of the pattern-owned matrix
// behind key, or nil when a was not assembled through this context (then no
// snapshot comparison is possible and the hierarchy is always rebuilt).
func (sc *SolveContext) operatorValues(key asmKey, a *sparse.CSR) []float64 {
	pat := sc.patterns[key]
	if pat == nil || pat.matrix != a {
		return nil
	}
	return pat.val
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmX0 returns the stored previous solution for key, or nil for a cold
// start. The sweep.warmstart.* counters make warm-start effectiveness
// visible in metrics snapshots.
func (sc *SolveContext) warmX0(key asmKey, n int) []float64 {
	if sc == nil || !sc.WarmStart {
		return nil
	}
	x := sc.warm[key]
	if len(x) != n {
		obs.Default().Counter("sweep.warmstart.resets").Inc()
		return nil
	}
	obs.Default().Counter("sweep.warmstart.hits").Inc()
	return x
}

// storeWarm retains a converged solution as the next warm start for key.
// The solver treats X0 as read-only and every caller of the solve copies
// the field out, so holding on to x is safe.
func (sc *SolveContext) storeWarm(key asmKey, x []float64) {
	if sc == nil || !sc.WarmStart {
		return
	}
	sc.warm[key] = x
}
