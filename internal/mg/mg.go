// Package mg implements the multigrid preconditioner for the structured
// tensor-product grids behind the finite-volume reference solver
// (internal/fem): the axisymmetric (r, z) grid and the 3-D Cartesian grid.
//
// Every level of either hierarchy is re-discretized straight from the finer
// level's stencil coefficients (geometric.go) — series-collapsed conductances
// along a coarsened axis, summed ones across it — so the build is a handful
// of O(n) passes with no sparse matrix products. Build picks how to coarsen
// and smooth from the grid it is given; no caller chooses:
//
//   - Grids with 1–2 axes (the axisymmetric reference and its transient)
//     coarsen 2× along every axis, relax by alternating-direction lines
//     (linesmooth.go), cycle as a truncated W-cycle and solve the coarsest
//     level by its banded LDLᵀ factor.
//   - 3-axis grids (the Cartesian block and the chip power map) coarsen z
//     only and relax whole xy-planes exactly (planes.go), cycled as a
//     V-cycle down to a single plane. The stacks are thin layers under a
//     copper via and a liner, so two axes couple strongly in places and
//     alternating lines with full coarsening is not robust there (160 CG
//     iterations on the Fig. 4 block); semicoarsening plus plane relaxation
//     is (Dendy, J. Comput. Phys. 48, 1982; Schaffer, SIAM J. Sci. Comput.
//     20(1), 1998).
//
// Either cycle is a fixed symmetric positive definite operator (CG stays
// valid), built from stencil products, transfers, line or plane solves and
// element-wise updates, each a plain loop with one fixed evaluation order on
// the calling goroutine.
package mg

import (
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

const (
	// coarsestSize stops full coarsening once a level has at most this many
	// unknowns; that level is solved directly by its band factor.
	coarsestSize = 400
	// maxLevels caps the depth of the fully coarsened hierarchy.
	maxLevels = 24
)

// level is one grid of the hierarchy plus its transfer to the next-coarser
// one. Scratch vectors live here so a cycle allocates nothing; consequently
// a Hierarchy serves one solve at a time.
type level struct {
	// op is the level's operator: the caller's stencil on the finest level,
	// a coefficient-backed stencil below it.
	op *sparse.Stencil

	// The smoother: alternating-direction line relaxation on fully
	// coarsened levels (linesmooth.go), exact xy-plane Gauss–Seidel on
	// semicoarsened ones (planes.go). Exactly one is set.
	lines  []lineAxis
	planes *planeAxis

	// Transfer to the next-coarser level; nil on the coarsest level.
	tr *transfer

	// Scratch: b/x are this level's restricted problem (unused on the finest
	// level, whose vectors belong to the caller), res the running residual,
	// e the post-smoothing correction, and cres/ct the smoothers' right-hand
	// side and line correction.
	b, x, res, e []float64
	cres, ct     []float64
	// b2/x2 carry the extra residual correction of the W-cycle (nil on the
	// finest level, which is never a W-cycle target, and on semicoarsened
	// levels, which cycle as a V). They must not alias the vectors above:
	// the correction wraps around a full cycle, which consumes every other
	// scratch slot on this level.
	b2, x2 []float64
}

// Hierarchy is a built multigrid preconditioner. It implements
// sparse.MGSolver. Build once per matrix and reuse across solves with the
// same operator (e.g. every implicit step of a transient integration); not
// safe for concurrent cycles.
type Hierarchy struct {
	levels []*level
	// coarse factors the coarsest fully coarsened level; nil on a
	// semicoarsened hierarchy, whose single-plane coarsest level the plane
	// smoother solves exactly.
	coarse *linalg.Band

	// Metric handles bound at Build time so cycling never takes the
	// registry lock. Both are nil when the obs default registry is disabled,
	// which reduces the per-cycle instrumentation to one nil check.
	cycles    *obs.Counter
	levelWall []*obs.Histogram
}

// Build constructs a hierarchy for the structured-grid operator a. The
// number of grid axes picks the coarsening (see the package comment): full
// for 1–2, z only for 3. The operator must be a conductance network —
// symmetric positive definite with nonpositive off-diagonals; Build fails
// when it is not, or when it cannot coarsen. The hierarchy's finest level runs on a itself, so a must
// not change while the hierarchy is in use.
func Build(a *sparse.Stencil) (*Hierarchy, error) {
	buildStart := time.Now()
	g, err := geomFromStencil(a)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{}
	if len(a.Dims()) < 3 {
		err = h.buildFull(a, g)
	} else {
		err = h.buildPlanes(a, g)
	}
	if err != nil {
		return nil, err
	}
	if len(h.levels) < 2 {
		return nil, fmt.Errorf("mg: %d unknowns cannot coarsen (already at or below the coarse-solve size)", a.Rows())
	}
	h.bindMetrics(time.Since(buildStart))
	return h, nil
}

// bindMetrics records the finished build and caches per-level handles so
// Cycle records without touching the registry's lock.
func (h *Hierarchy) bindMetrics(buildWall time.Duration) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("mg.builds").Inc()
	r.Histogram("mg.build.seconds", obs.ExpBuckets(1e-4, 4, 10)).Observe(buildWall.Seconds())
	r.Gauge("mg.levels").Set(float64(len(h.levels)))
	h.cycles = r.Counter("mg.cycles")
	h.levelWall = make([]*obs.Histogram, len(h.levels))
	for k, lv := range h.levels {
		h.levelWall[k] = r.Histogram(fmt.Sprintf("mg.cycle.level%d.seconds", k), obs.ExpBuckets(1e-7, 4, 12))
		// Stored entries and mean stencil width per level: every level is
		// a re-discretized stencil, so these report its structural counts.
		nnz := lv.op.NNZ()
		r.Gauge(fmt.Sprintf("mg.level%d.nnz", k)).Set(float64(nnz))
		r.Gauge(fmt.Sprintf("mg.level%d.density", k)).Set(float64(nnz) / float64(lv.op.Rows()))
	}
}

// newLevel allocates a level's scratch space around its operator.
func newLevel(op *sparse.Stencil) *level {
	n := op.Rows()
	return &level{
		op:   op,
		b:    make([]float64, n),
		x:    make([]float64, n),
		res:  make([]float64, n),
		e:    make([]float64, n),
		cres: make([]float64, n),
		ct:   make([]float64, n),
	}
}

// Levels implements sparse.MGSolver.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Size implements sparse.MGSolver.
func (h *Hierarchy) Size() int { return h.levels[0].op.Rows() }

// Cycle implements sparse.MGSolver: z ← cycle(0, r), one symmetric cycle
// with matching pre- and post-smoothing — a truncated W-cycle with line
// smoothing on a fully coarsened hierarchy, a V-cycle with plane smoothing
// on a semicoarsened one. The smoother pair is adjoint and the coarse solve
// is exact, so the cycle is a fixed symmetric positive definite operator.
func (h *Hierarchy) Cycle(z, r []float64) {
	h.cycles.Inc()
	h.vcycle(0, z, r)
}

func (h *Hierarchy) vcycle(k int, x, b []float64) {
	if h.levelWall != nil {
		// Inclusive per-level wall time: level k's bucket covers its smoothing,
		// transfers, and everything below it.
		start := time.Now()
		defer func() { h.levelWall[k].Observe(time.Since(start).Seconds()) }()
	}
	lv := h.levels[k]
	if k == len(h.levels)-1 {
		if h.coarse == nil {
			// A single plane: one plane solve is exact.
			lv.smooth(x, b, false)
			return
		}
		// Band factor sweeps into the level's solution vector (the
		// coarsest grid is a few hundred unknowns).
		h.coarse.Solve(x, b)
		return
	}
	next := h.levels[k+1]
	// Pre-smooth from the zero initial guess.
	lv.smooth(x, b, false)
	// res = b - A·x, fused per row (same accumulation order as the
	// unfused matvec-then-subtract).
	res := lv.res
	lv.op.SpanResidual(x, b, res, 0, len(res))
	// Restrict: b_c = Pᵀ·res.
	lv.tr.restrict(res, next.b)
	h.vcycle(k+1, next.x, next.b)
	if next.b2 != nil && k+1 < len(h.levels)-1 {
		// Truncated W-cycle: revisit the coarse level once more, an additive
		// correction of the residual the first visit left. With B the
		// single-visit cycle, two visits apply 2B − BAB — still symmetric,
		// still positive definite for a convergent B — so the preconditioner
		// stays CG-safe. Full coarsening halves resolution per axis every
		// level, and the cheap extra coarse visit buys back what the faster
		// coarsening loses. Skipped on the coarsest level, whose direct
		// solve is already exact.
		next.op.SpanResidual(next.x, next.b, next.b2, 0, len(next.b2))
		h.vcycle(k+1, next.x2, next.b2)
		vecAdd(next.x, next.x2)
	}
	// Prolong and correct: x += P·e.
	lv.tr.prolongAdd(next.x, x)
	// Post-smooth the correction: x += S'·(b - A·x) with S' the adjoint of
	// the pre-smoother (the line sweep in reversed axis order, or the plane
	// sweep in reversed plane order), keeping the cycle symmetric.
	lv.op.SpanResidual(x, b, res, 0, len(res))
	lv.smooth(lv.e, res, true)
	vecAdd(x, lv.e)
}

// smooth applies the level's smoother to r from z = 0: the alternating-
// direction line relaxation or the plane Gauss–Seidel sweep. Either way z is
// a fixed linear operator applied to r. z must not alias r or the scratch.
// reverse selects the adjoint sweep order; the post-smoother passes true so
// the cycle stays a symmetric operator.
func (lv *level) smooth(z, r []float64, reverse bool) {
	if lv.planes != nil {
		lv.smoothPlanes(z, r, reverse)
		return
	}
	lv.smoothLines(z, r, reverse)
}

// vecAdd computes dst[i] += src[i].
func vecAdd(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}
