package fem

import (
	"repro/internal/mg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// SolveContext carries reusable state across the repeated solves of a
// parameter sweep: assemblies (stencil coefficient arrays refilled in
// place), multigrid hierarchies, a scratch pool of CG work vectors, and —
// opt-in — the previous solution of each system shape for warm-starting CG.
//
// Everything except WarmStart is invisible in the results: a solve through a
// context is bit-identical to the same solve without one, because the reuse
// paths run the exact machinery of the fresh paths and only recycle memory.
// WarmStart changes the CG starting point and therefore the iterate sequence
// (the solution still converges to the same tolerance), which is why it is a
// separate switch rather than part of the default reuse.
//
// A SolveContext is not safe for concurrent use: it serves one solve at a
// time. Sweep workers each own one. The zero value of the
// pointer (nil) is valid everywhere and means "no reuse".
type SolveContext struct {
	// NoReuse disables assembly, hierarchy and scratch reuse, making every solve
	// behave as if it ran without a context. Mainly for A/B-testing reuse
	// itself (the equivalence property tests flip it).
	NoReuse bool
	// WarmStart seeds each solve's CG iteration with the previous solution
	// of the same system shape. Off by default: it perturbs the iterate
	// sequence, so it is excluded from the bit-identity contract above.
	WarmStart bool

	assemblies map[asmKey]*assembly
	hier       map[asmKey]*hierEntry
	warm       map[asmKey][]float64
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
		hier:       make(map[asmKey]*hierEntry),
		warm:       make(map[asmKey][]float64),
	}
}

// Close drops the context's pooled scratch vectors. The context remains
// usable; a later solve simply re-creates the pool.
func (sc *SolveContext) Close() {
	if sc == nil {
		return
	}
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

// cachedAssembly returns the cached assembly for key, or nil when the
// caller must allocate one. The fem.assemble.pattern.* counters record
// refills (hits) against fresh allocations (misses).
func (sc *SolveContext) cachedAssembly(key asmKey) *assembly {
	if !sc.reusing() {
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
	if !sc.reusing() {
		return
	}
	sc.assemblies[asm.key] = asm
}

// scratch returns the context's scratch pool, which lets consecutive solves
// share their CG work vectors. Returns nil when the context is nil or reuse
// is off (each solve then allocates its own).
func (sc *SolveContext) scratch() *sparse.Pool {
	if !sc.reusing() {
		return nil
	}
	if sc.pool == nil {
		sc.pool = &sparse.Pool{}
	}
	return sc.pool
}

// hierarchyFor returns a multigrid hierarchy for the stencil a assembled
// under key. Three tiers, cheapest first:
//
//   - the cached hierarchy's coefficient snapshot matches a bit for bit →
//     serve it untouched (repeated solves of one design point);
//   - a cached hierarchy exists but the values moved → full rebuild through
//     the predecessor's recycled arena (mg.Options.Prev): every coarse
//     operator, transfer and factorization is recomputed — they all depend
//     on the operator values, so none can be kept — but without
//     allocations, and bit-identical to a fresh build;
//   - no cached hierarchy (or no context) → fresh build.
func (sc *SolveContext) hierarchyFor(key asmKey, a *sparse.Stencil) (*mg.Hierarchy, error) {
	if !sc.reusing() {
		return mg.Build(a, mg.Options{})
	}
	e := sc.hier[key]
	if e != nil && e.h != nil && sameCoeffs(e.vals, a) {
		obs.Default().Counter("fem.mg.reuse.hits").Inc()
		return e.h, nil
	}
	var prev *mg.Hierarchy
	if e != nil && e.h != nil {
		prev = e.h
		e.h = nil
		obs.Default().Counter("fem.mg.reuse.rebuilds").Inc()
	}
	h, err := mg.Build(a, mg.Options{Prev: prev})
	if err != nil {
		delete(sc.hier, key)
		return nil, err
	}
	if e == nil {
		e = &hierEntry{}
		sc.hier[key] = e
	}
	e.h = h
	diag, off := a.Coeffs()
	e.vals = e.vals[:0]
	for _, part := range [...][]float64{diag, off[0], off[1], off[2]} {
		e.vals = append(e.vals, part...)
	}
	return h, nil
}

// sameCoeffs reports whether snap holds exactly a's coefficient arrays laid
// end to end, as hierarchyFor stores them.
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
