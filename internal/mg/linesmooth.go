package mg

import "fmt"

// Alternating-direction line smoother for the fully coarsened hierarchy.
//
// A point smoother fails on fully coarsened levels: full 2×-per-axis
// coarsening preserves a grid's anisotropy ratio level after level, and the
// layer stack's thin-layer/bulk cell aspect ratios leave "characteristic"
// error modes — oscillatory across the weakly coupled axis, smooth along the
// strong one — that a point smoother barely damps (their Jacobi-scaled
// eigenvalues are tiny) and the coarsened grid cannot represent. The
// hierarchy instead relaxes whole grid lines at once: solving the tridiagonal
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
// inverse pivot per cell); each line is solved by a fixed-order recurrence.

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
// ascending pass per axis.
func factorLines(g *geomGrid) ([]lineAxis, error) {
	var axes []lineAxis
	s := g.strides()
	for d := 0; d < 3; d++ {
		if g.nd[d] <= 1 {
			continue
		}
		l := make([]float64, g.n)
		invc := make([]float64, g.n)
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

// solve computes x = T⁻¹r for the axis's line blocks: for each grid line
// along the axis, the LDLᵀ backsolve of its tridiagonal block — forward
// substitution (I+L)y = r, then x = (I+Lᵀ)⁻¹C⁻¹y walking back down the
// line. x must not alias r.
func (ax *lineAxis) solve(r, x []float64) {
	if ax.axis == 1 {
		ax.solveRows(r, x)
		return
	}
	l, invc := ax.l, ax.invc
	for t, lines := 0, len(r)/ax.nd[ax.axis]; t < lines; t++ {
		i, s, length := lineBase(ax.nd, ax.axis, t)
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

// solveRows is solve along axis 1, where a line's cells lie nx apart: it
// advances all nx lines of each xy-plane in lockstep, one grid row at a
// time, so every step streams a contiguous row instead of one cell per
// line. Each line still runs its own recurrence step for step, so x is bit
// for bit that of the line-at-a-time walk.
func (ax *lineAxis) solveRows(r, x []float64) {
	nx, nxy := ax.nd[0], ax.nd[0]*ax.nd[1]
	l, invc := ax.l, ax.invc
	for p := 0; p < len(r); p += nxy {
		copy(x[p:p+nx], r[p:p+nx])
		for i := p + nx; i < p+nxy; i += nx {
			xi := x[i : i+nx]
			ri, li, xp := r[i : i+nx][:len(xi)], l[i : i+nx][:len(xi)], x[i-nx : i][:len(xi)]
			for k := range xi {
				xi[k] = ri[k] - li[k]*xp[k]
			}
		}
		last := p + nxy - nx
		xl := x[last : last+nx]
		cl := invc[last : last+nx][:len(xl)]
		for k := range xl {
			xl[k] *= cl[k]
		}
		for i := last - nx; i >= p; i -= nx {
			xi := x[i : i+nx]
			ci, ln, xn := invc[i : i+nx][:len(xi)], l[i+nx : i+2*nx][:len(xi)], x[i+nx : i+2*nx][:len(xi)]
			for k := range xi {
				xi[k] = xi[k]*ci[k] - ln[k]*xn[k]
			}
		}
	}
}

// lineBase resolves the traversal of grid lines along an axis: the base
// cell of line t, the element stride within a line, and the line length.
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

// smoothLines applies the alternating-direction line smoother from the zero
// initial guess: a multiplicative sweep over the level's axes, ascending
// when reverse is false (pre-smoothing), descending when true (the adjoint
// order, for post-smoothing). z must not alias r or the scratch.
func (lv *level) smoothLines(z, r []float64, reverse bool) {
	axes := lv.lines
	for k := range axes {
		ax := &axes[k]
		if reverse {
			ax = &axes[len(axes)-1-k]
		}
		if k == 0 {
			ax.solve(r, z)
			continue
		}
		lv.op.SpanResidual(z, r, lv.cres, 0, len(r))
		ax.solve(lv.cres, lv.ct)
		vecAdd(z, lv.ct)
	}
}
