// Package mg implements the multigrid preconditioner for the structured
// tensor-product grids behind the finite-volume reference solver
// (internal/fem): the axisymmetric (r, z) grid and the 3-D Cartesian grid.
//
// Build picks the hierarchy from the grid it is given; no caller chooses:
//
//   - Grids with 1–2 axes (the axisymmetric reference and its transient) get
//     the geometric hierarchy (geometric.go): every coarse level is
//     re-discretized straight from the fine level's stencil coefficients by
//     2×-per-axis cell merging, smoothed by alternating-direction line
//     relaxation (linesmooth.go) and cycled as a truncated W-cycle. The build
//     is a handful of O(n) passes with no sparse matrix products.
//   - 3-axis grids (the Cartesian block and the chip power map) get the
//     smoothed-aggregation Galerkin hierarchy (coarsen.go): fine cells are
//     paired into aggregates by coupling strength, the tentative piecewise-
//     constant prolongation is smoothed by one damped-Jacobi pass,
//     P = (I − ω·D⁻¹A)·P_agg, and the Galerkin product A_c = Pᵀ·A·P forms
//     each coarse operator, cycled as a V-cycle with Chebyshev smoothing.
//     Alternating line relaxation with full 2× coarsening is not robust when
//     two axes couple strongly, which happens only in 3-D: on the Fig. 4
//     block the geometric cycle needs 160 CG iterations where Galerkin needs
//     21, and on Fig. 5 it stalls before its iteration budget. Aggregating
//     along each cell's strongest coupling semi-coarsens every region along
//     its own strong direction instead (see aggregateStrength).
//
// Either cycle is a fixed symmetric positive definite operator (CG stays
// valid), built from matrix products, transfers, line solves and element-
// wise updates on the deterministic chunk grid of internal/sparse.Pool —
// solves are bit-identical for any worker count.
package mg

import (
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Options tunes hierarchy construction. The zero value builds from scratch.
type Options struct {
	// Prev optionally donates a previous hierarchy whose backing arrays are
	// recycled through the build's internal arena — the rebuild path for
	// parameter sweeps, where each point's operator shares the sparsity
	// pattern of the last. The rebuild recomputes every coarse operator,
	// transfer and factorization from the new matrix (a recycled build IS a
	// full build, just without the allocations), so the result is
	// bit-identical to a fresh Build. Prev is consumed: it must not be cycled
	// again afterwards, even when Build fails.
	Prev *Hierarchy
}

const (
	// coarsestSize stops coarsening once a level has at most this many
	// unknowns; that level is solved directly by dense Cholesky.
	coarsestSize = 400
	// maxLevels caps the hierarchy depth.
	maxLevels = 24
	// smootherDegree is the Chebyshev smoother's polynomial degree per pre-
	// and post-smoothing application on Galerkin levels.
	smootherDegree = 2
	// smootherRange sets the Chebyshev smoother's target interval
	// [λmax/smootherRange, λmax] on the Jacobi-scaled spectrum.
	smootherRange = 8.0
)

// level is one grid of the hierarchy plus its transfer to the next-coarser
// one. Scratch vectors live here so a cycle allocates nothing; consequently
// a Hierarchy serves one solve at a time (like sparse.Pool).
type level struct {
	// op is the level's operator: the caller's stencil on the finest level,
	// a coefficient-backed stencil on geometric coarse levels, a Galerkin
	// CSR on smoothed-aggregation coarse levels.
	op matrix

	// Chebyshev smoother data (see newSmoother). lmax is the Gershgorin
	// bound on the Jacobi-scaled spectrum, reused as the prolongation-
	// smoothing scale.
	invDiag      []float64
	lmax         float64
	theta, delta float64

	// lines switches the level to the alternating-direction line smoother
	// (see linesmooth.go) — set on every geometric level, nil on Galerkin
	// ones, which keep the Chebyshev smoother.
	lines []lineAxis

	// Transfer to the next-coarser level; nil on the coarsest level.
	tr *transfer

	// Scratch: b/x are this level's restricted problem (unused on the finest
	// level, whose vectors belong to the caller), res the running residual,
	// e the post-smoothing correction, and cd/cres/ct the Chebyshev
	// iteration state.
	b, x, res, e []float64
	cd, cres, ct []float64
	// b2/x2 carry the extra residual correction of the geometric W-cycle
	// (nil on the finest level, which is never a W-cycle target, and on
	// Galerkin levels). They must not alias the vectors above: the
	// correction wraps around a full cycle, which consumes every other
	// scratch slot on this level.
	b2, x2 []float64
}

// matrix is what a level reads of its operator: the products the cycle
// runs, plus the entry count and the ascending-column entry walk that
// Galerkin coarsening and the dense coarse solve consume. *sparse.Stencil
// and *sparse.CSR both provide it.
type matrix interface {
	sparse.Operator
	NNZ() int
	Each(fn func(i, j int, v float64))
}

// Hierarchy is a built multigrid preconditioner. It implements
// sparse.MGSolver. Build once per matrix and reuse across solves with the
// same operator (e.g. every implicit step of a transient integration); not
// safe for concurrent cycles.
type Hierarchy struct {
	levels []*level
	coarse *linalg.Cholesky

	// geometric records which hierarchy Build chose: it selects the
	// W-cycle in vcycle and feeds metrics and diagnostics.
	geometric bool

	// ar owns every array behind the hierarchy; Build(Options{Prev: h})
	// resets and reuses it, which is why a donated hierarchy must never be
	// cycled again.
	ar *arena

	// Metric handles bound at Build time so cycling never takes the
	// registry lock. Both are nil when the obs default registry is disabled,
	// which reduces the per-cycle instrumentation to one nil check.
	cycles    *obs.Counter
	levelWall []*obs.Histogram
}

// Build constructs a hierarchy for the structured-grid operator a. The
// number of grid axes picks the hierarchy (see the package comment):
// geometric for 1–2, smoothed-aggregation Galerkin for 3. The operator must
// be symmetric positive definite with a positive diagonal — on 1–2 axes also
// a conductance network (nonpositive off-diagonals); Build fails — and the
// caller falls back to a single-level preconditioner — when it is not, or
// when it cannot coarsen. The hierarchy's finest level runs on a itself, so
// a must not change while the hierarchy is in use.
func Build(a *sparse.Stencil, opt Options) (*Hierarchy, error) {
	return build(a, opt, len(a.Dims()) < 3)
}

// build is Build with the hierarchy chosen by the caller, so tests can
// compare both hierarchies on one grid.
func build(a *sparse.Stencil, opt Options, geometric bool) (*Hierarchy, error) {
	buildStart := time.Now()
	// Recycle the donated hierarchy's arena when there is one; every
	// allocation below comes out of it, so a steady-state sweep rebuild
	// allocates (almost) nothing. A fresh build seeds an arena of its own,
	// making any hierarchy a valid donor later.
	mem := &arena{}
	reused := false
	if opt.Prev != nil && opt.Prev.ar != nil {
		mem = opt.Prev.ar
		mem.reset()
		opt.Prev.ar = nil // the donor must never be cycled again
		opt.Prev.levels = nil
		reused = true
	}
	h := &Hierarchy{ar: mem, geometric: geometric}
	if geometric {
		if err := h.buildGeometric(a, mem); err != nil {
			return nil, err
		}
	} else if err := h.buildGalerkin(a, mem); err != nil {
		return nil, err
	}
	h.bindMetrics(time.Since(buildStart), reused)
	return h, nil
}

// buildGalerkin runs the smoothed-aggregation coarsening loop and factors the
// coarsest Galerkin operator.
func (h *Hierarchy) buildGalerkin(fine *sparse.Stencil, mem *arena) error {
	var a matrix = fine
	for {
		lv, err := newLevel(a, mem)
		if err != nil {
			return err
		}
		h.levels = append(h.levels, lv)
		if a.Rows() <= coarsestSize || len(h.levels) >= maxLevels {
			break
		}
		ar := extractCSR(a, mem)
		agg, nc := aggregateStrength(ar, mem)
		if nc >= a.Rows() {
			break
		}
		lv.tr = smoothedProlongation(ar, lv.invDiag, lv.lmax, agg, nc, mem)
		if a, err = galerkin(ar, lv.tr, nc, mem); err != nil {
			return fmt.Errorf("mg: level %d coarse operator: %w", len(h.levels), err)
		}
	}
	if len(h.levels) < 2 {
		return fmt.Errorf("mg: %d unknowns cannot coarsen (already at or below the coarse-solve size)", fine.Rows())
	}
	// Direct coarse solve: factor once, backsolve per cycle. A factorization
	// failure means the Galerkin operator lost positive definiteness, i.e.
	// the input matrix was not SPD — report it instead of cycling divergently.
	bottom := h.levels[len(h.levels)-1].op
	nb := bottom.Rows()
	chol, err := linalg.FactorizeCholeskyInto(denseFrom(bottom, mem),
		linalg.NewMatrixWithData(nb, nb, mem.f64(nb*nb)))
	if err != nil {
		return fmt.Errorf("mg: coarse-grid factorization: %w", err)
	}
	h.coarse = chol
	return nil
}

// bindMetrics records the finished build and caches per-level handles so
// Cycle records without touching the registry's lock.
func (h *Hierarchy) bindMetrics(buildWall time.Duration, reused bool) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("mg.builds").Inc()
	if h.geometric {
		r.Counter("mg.builds.geometric").Inc()
	}
	if reused {
		r.Counter("mg.rebuilds.recycled").Inc()
	}
	r.Histogram("mg.build.seconds", obs.ExpBuckets(1e-4, 4, 10)).Observe(buildWall.Seconds())
	r.Gauge("mg.levels").Set(float64(len(h.levels)))
	h.cycles = r.Counter("mg.cycles")
	h.levelWall = make([]*obs.Histogram, len(h.levels))
	for k, lv := range h.levels {
		h.levelWall[k] = r.Histogram(fmt.Sprintf("mg.cycle.level%d.seconds", k), obs.ExpBuckets(1e-7, 4, 12))
		// Stored entries and mean stencil width per level: the Galerkin
		// densification these gauges expose is what the prolongation
		// filtering exists to contain (the re-discretized geometric levels
		// report their fixed structural stencil counts instead).
		nnz := lv.op.NNZ()
		r.Gauge(fmt.Sprintf("mg.level%d.nnz", k)).Set(float64(nnz))
		r.Gauge(fmt.Sprintf("mg.level%d.density", k)).Set(float64(nnz) / float64(lv.op.Rows()))
	}
}

// newLevel wraps an operator with its smoother and scratch space.
func newLevel(op matrix, mem *arena) (*level, error) {
	n := op.Rows()
	lv := &level{
		op:   op,
		b:    mem.f64(n),
		x:    mem.f64(n),
		res:  mem.f64(n),
		e:    mem.f64(n),
		cd:   mem.f64(n),
		cres: mem.f64(n),
		ct:   mem.f64(n),
	}
	if err := lv.newSmoother(mem); err != nil {
		return nil, err
	}
	return lv, nil
}

// Levels implements sparse.MGSolver.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Size implements sparse.MGSolver.
func (h *Hierarchy) Size() int { return h.levels[0].op.Rows() }

// Geometric reports whether Build chose the geometric hierarchy (1–2 grid
// axes) rather than smoothed aggregation (3 axes) — diagnostics for tests.
func (h *Hierarchy) Geometric() bool { return h.geometric }

// LevelSizes returns the unknown count per level, finest first —
// diagnostics for tests and the verbose CLI paths.
func (h *Hierarchy) LevelSizes() []int {
	out := make([]int, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.op.Rows()
	}
	return out
}

// Cycle implements sparse.MGSolver: z ← cycle(0, r), one symmetric cycle
// with matching pre- and post-smoothing — a V(1,1) cycle with Chebyshev
// smoothing on a Galerkin hierarchy, a truncated W-cycle with line smoothing
// on a geometric one. The smoother pair is adjoint and the coarse solve is
// exact, so the cycle is a fixed symmetric positive definite operator.
func (h *Hierarchy) Cycle(z, r []float64, p *sparse.Pool) {
	h.cycles.Inc()
	h.vcycle(0, z, r, p)
}

func (h *Hierarchy) vcycle(k int, x, b []float64, p *sparse.Pool) {
	if h.levelWall != nil {
		// Inclusive per-level wall time: level k's bucket covers its smoothing,
		// transfers, and everything below it.
		start := time.Now()
		defer func() { h.levelWall[k].Observe(time.Since(start).Seconds()) }()
	}
	lv := h.levels[k]
	if k == len(h.levels)-1 {
		// Dense Cholesky backsolve into the level's solution vector;
		// sequential (the coarsest grid is a few hundred unknowns) and
		// therefore trivially worker-count independent.
		if err := h.coarse.SolveInto(x, b); err != nil {
			// Unreachable: the factor and b have matching sizes by
			// construction. Fall back to a Jacobi sweep rather than panic.
			for i := range x {
				x[i] = b[i] * lv.invDiag[i]
			}
		}
		return
	}
	next := h.levels[k+1]
	// Pre-smooth from the zero initial guess: x = q(B)·D⁻¹·b.
	lv.smooth(x, b, p, false)
	// res = b - A·x, fused per row (same accumulation order as the
	// unfused matvec-then-subtract).
	res := lv.res
	p.ResidualOp(lv.op, x, b, res)
	// Restrict: b_c = Pᵀ·res, parallel over coarse rows with the summation
	// order fixed by the transposed CSR layout.
	tr := lv.tr
	p.MulVecRaw(tr.ptPtr, tr.ptCol, tr.ptVal, res, next.b)
	h.vcycle(k+1, next.x, next.b, p)
	if h.geometric && k+1 < len(h.levels)-1 {
		// Truncated W-cycle: revisit the coarse level once more, an additive
		// correction of the residual the first visit left. With B the
		// single-visit cycle, two visits apply 2B − BAB — still symmetric,
		// still positive definite for a convergent B — so the preconditioner
		// stays CG-safe. Full coarsening halves resolution per axis every
		// level, and the cheap extra coarse visit buys back what the faster
		// coarsening loses. Skipped on the coarsest level, whose direct
		// solve is already exact.
		p.ResidualOp(next.op, next.x, next.b, next.b2)
		h.vcycle(k+1, next.x2, next.b2, p)
		p.VecAdd(next.x, next.x2)
	}
	// Prolong and correct: x += P·e, parallel over fine rows.
	p.MulVecAddRaw(tr.pPtr, tr.pCol, tr.pVal, next.x, x)
	// Post-smooth the correction: x += S'·(b - A·x) with S' the adjoint of
	// the pre-smoother (the same Chebyshev polynomial, or the line sweep in
	// reversed axis order), keeping the cycle symmetric.
	p.ResidualOp(lv.op, x, b, res)
	lv.smooth(lv.e, res, p, true)
	p.VecAdd(x, lv.e)
}
