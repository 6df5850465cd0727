package mg

import (
	"fmt"

	"repro/internal/sparse"
)

// Alternating-direction line smoother for the geometric hierarchy.
//
// The point Chebyshev smoother that serves the Galerkin levels fails on the
// geometric ones: full 2×-per-axis coarsening preserves a grid's anisotropy
// ratio level after level, and the layer stack's thin-layer/bulk cell aspect
// ratios leave "characteristic" error modes — oscillatory across the weakly
// coupled axis, smooth along the strong one — that a point smoother barely
// damps (their Jacobi-scaled eigenvalues are tiny) and the coarsened grid
// cannot represent. The smoothed-aggregation path sidesteps this by
// semi-coarsening each region along its own strong direction; the geometric
// path instead relaxes whole grid lines at once: solving the tridiagonal
// block of every line along an axis damps all modes oscillatory along that
// axis regardless of its coupling strength, and sweeping each axis in turn
// covers every direction the anisotropy can point. This is the classical
// robust pairing with full coarsening (Trottenberg et al., Multigrid §5.1).
//
// One smoother application is a damped multiplicative sweep over the axes:
//
//	z ← ω·T₀⁻¹ r;   z ← z + ω·T_d⁻¹ (r − A·z)   for each further axis d
//
// with T_d the block diagonal of A restricted to lines along axis d. Each
// block is strictly diagonally dominant (A's diagonal carries the other
// axes' couplings and the grounding), so the factorization exists and each
// sweep is convergent in the A-norm: A ⪯ 2·T_d because T_d + |A − T_d| is
// diagonally dominant. The pre-smoother sweeps axes in ascending order and
// the post-smoother descending — adjoint orders, which keeps the whole
// cycle a fixed symmetric positive definite operator (CG stays valid).
//
// The factors are stored per level as two arrays (unit-lower entry and
// inverse pivot per cell), and the solves run through the pool's line
// kernels: lines are independent, so results are bit-identical for any
// worker count.

// lineAxis holds the LDLᵀ factors of the tridiagonal line blocks along one
// grid axis of a level: l[i] is row i's unit-lower-triangular entry (its
// coupling to the previous cell on the line divided by that cell's pivot)
// and invc[i] the inverse pivot.
type lineAxis struct {
	axis    int
	nd      [3]int
	l, invc []float64
}

// lineOmega damps each line sweep: z += ω·T_d⁻¹(r − A·z). The undamped
// sweep merely flips the sign of the characteristic modes whose T_d-relative
// eigenvalue approaches 2 — oscillatory across an axis far weaker than the
// line's (the strong coupling cancels from T_d on modes smooth along the
// line, leaving the weak-direction operator, whose upper spectrum reaches
// λ ≈ 2) — and those modes are exactly the ones full coarsening cannot
// represent. Damping pulls every mode factor into [1−2ω, 1), so a mode
// survives the alternating sweep only by being smooth along every axis,
// which is what the coarse grid represents. ω = 0.55 minimizes W-cycle
// iterations across the grid zoo (layered/contrast plateau for
// ω ∈ [0.52, 0.62]; larger ω under-damps the λ ≈ 2 modes, smaller ω
// under-damps the mid-spectrum). The damping is baked into the stored
// inverse pivots (ω·T⁻¹ = (I+L)⁻ᵀ·(ω·C⁻¹)·(I+L)⁻¹), so it costs nothing
// per application.
const lineOmega = 0.55

// factorLines LDLᵀ-factors the tridiagonal line blocks of g along every axis
// of extent > 1, in ascending axis order — the sweep order of the smoother —
// and folds the lineOmega damping into the inverse pivots. One sequential
// ascending pass per axis, so recycled rebuilds are bit-identical to fresh
// ones.
func factorLines(g *geomGrid, mem *arena) ([]lineAxis, error) {
	var axes []lineAxis
	s := g.strides()
	for d := 0; d < 3; d++ {
		if g.nd[d] <= 1 {
			continue
		}
		l := mem.f64(g.n)
		invc := mem.f64(g.n)
		sd := s[d]
		off := g.off[d]
		for i := 0; i < g.n; i++ {
			c := g.diag[i]
			if g.coord(i, d) > 0 {
				lo := off[i-sd]
				li := lo * invc[i-sd]
				l[i] = li
				c -= li * lo
			} else {
				l[i] = 0
			}
			if !(c > 0) {
				return nil, fmt.Errorf("mg: line smoother pivot %g at cell %d axis %d (matrix not SPD?)", c, i, d)
			}
			invc[i] = 1 / c
		}
		for i := 0; i < g.n; i++ {
			invc[i] *= lineOmega
		}
		axes = append(axes, lineAxis{axis: d, nd: g.nd, l: l, invc: invc})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("mg: grid %v has no axis to smooth along", g.nd)
	}
	return axes, nil
}

// solve computes x = T⁻¹r for the axis's line blocks through the pool's
// deterministic line kernels.
func (ax *lineAxis) solve(p *sparse.Pool, r, x []float64) {
	p.LineSolve(ax.nd, ax.axis, ax.l, ax.invc, r, x)
}

// smoothLines applies the alternating-direction line smoother from the zero
// initial guess: a multiplicative sweep over the level's axes, ascending
// when reverse is false (pre-smoothing), descending when true (the adjoint
// order, for post-smoothing). z must not alias r or the scratch.
func (lv *level) smoothLines(z, r []float64, p *sparse.Pool, reverse bool) {
	axes := lv.lines
	for k := range axes {
		ax := &axes[k]
		if reverse {
			ax = &axes[len(axes)-1-k]
		}
		if k == 0 {
			ax.solve(p, r, z)
			continue
		}
		p.ResidualOp(lv.op, z, r, lv.cres)
		ax.solve(p, lv.cres, lv.ct)
		p.VecAdd(z, lv.ct)
	}
}
