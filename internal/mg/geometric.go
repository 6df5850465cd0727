package mg

// Re-discretized coarse levels, the construction both hierarchies share.
//
// The matrix of the finite-volume reference grid IS a 7-point conductance
// network with a nonnegative grounding (the Dirichlet boundary terms), and a
// coarse grid is just the same network with merged cells. Each coarse level
// is therefore re-discretized directly from the finer level's coefficients
// (coarsenGeom), merging cells 2× along every coarsened axis (an odd extent
// leaves a final unpaired cell):
//
//   - The coarse coupling across a coarse face of a coarsened axis sums,
//     over the fine cells of the face, the series collapse of the fine
//     conductance chain from box center to box center:
//
//       g_chain = 1 / (0.5/g_in(I) + 1/g_cross + 0.5/g_in(J))
//
//     where g_cross is the fine face conductance across the coarse face and
//     g_in the fine conductance interior to each box along the same axis
//     (the half terms vanish for unpaired single-cell boxes). On a uniform
//     1-D grid this reduces to k·A/(2h) — exactly the conductance of a grid
//     with doubled spacing, which is what plain aggregation (merged nodes,
//     g_c = g_cross) gets wrong by 2×. Along an axis that is not coarsened
//     the merged cells' faces lie side by side, so their conductances sum.
//   - The grounding σ_i = diag_i − Σ g (clamped at zero against floating-
//     point cancellation on interior rows) sums over each box.
//   - The coarse diagonal rebuilds as Σ adjacent g_c + σ_c, so every level
//     stays a conductance network with nonnegative grounding — symmetric
//     positive (semi-)definite by construction, positive definite whenever
//     the fine system was grounded.
//
// Each level stores four coefficient arrays (diagonal + one per axis) behind
// a coefficient-backed sparse.Stencil — no coarse CSR exists at all. On 1–2
// axes every axis coarsens (boxFull); the prolongation is the box injection
// smoothed by one damped-Jacobi pass, P = (I − ω·D⁻¹A)·P_box, assembled
// directly from the stencil coefficients in a single O(n) pass (see
// geomTransfer) and stored in CSR layout, which both the prolongation and
// the restriction read (see transfer). Because full coarsening preserves anisotropy ratios level
// after level, those levels smooth with the alternating-direction line
// smoother (linesmooth.go) and cycle as a truncated W-cycle (see vcycle). On
// 3 axes only z coarsens (boxZ; see planes.go).

import (
	"fmt"

	"repro/internal/sparse"
)

// geomGrid is one level's re-discretized stencil data during a geometric
// build: per-axis extents (1 for absent axes), the stencil coefficient
// arrays, and the grounding the next coarsening needs.
type geomGrid struct {
	nd [3]int
	n  int
	// diag and off hold the matrix coefficients (off[d][i] = A[i, i+s_d]
	// ≤ 0, nil for axes of extent 1) — the arrays a coefficient-backed
	// sparse.Stencil wraps directly.
	diag []float64
	off  [3][]float64
	// sigma is the nonnegative grounding diag − Σ g per cell.
	sigma []float64
}

func (g *geomGrid) strides() [3]int { return [3]int{1, g.nd[0], g.nd[0] * g.nd[1]} }

// coord returns cell i's grid coordinate along axis d.
func (g *geomGrid) coord(i, d int) int {
	switch d {
	case 0:
		return i % g.nd[0]
	case 1:
		return i / g.nd[0] % g.nd[1]
	default:
		return i / (g.nd[0] * g.nd[1])
	}
}

// geomFromStencil reads the fine level straight off the operator's
// coefficient arrays — aliased, not copied: the build only reads them — and
// computes the grounding. The operator must be a conductance network: every
// existing off-diagonal nonpositive.
func geomFromStencil(a *sparse.Stencil) (*geomGrid, error) {
	g := &geomGrid{nd: [3]int{1, 1, 1}, n: a.Rows()}
	for i, d := range a.Dims() {
		g.nd[i] = d
	}
	g.diag, g.off = a.Coeffs()
	for d := 0; d < 3; d++ {
		for i := 0; i < g.n; i++ {
			if g.coord(i, d)+1 < g.nd[d] && g.off[d][i] > 0 {
				return nil, fmt.Errorf("mg: positive off-diagonal %g at (%d,%d); multigrid needs a conductance network",
					g.off[d][i], i, i+g.strides()[d])
			}
		}
	}
	g.sigma = make([]float64, g.n)
	g.fillSigma()
	return g, nil
}

// fillSigma computes the grounding σ_i = diag_i + Σ off (off ≤ 0), clamped
// at zero: interior rows cancel exactly in real arithmetic but not in
// floating point, and a negative grounding would break the SPD-by-
// construction argument for the coarse levels.
func (g *geomGrid) fillSigma() {
	s := g.strides()
	ix, iy, iz := 0, 0, 0
	for i := 0; i < g.n; i++ {
		sum := g.diag[i]
		if iz > 0 {
			sum += g.off[2][i-s[2]]
		}
		if iy > 0 {
			sum += g.off[1][i-s[1]]
		}
		if ix > 0 {
			sum += g.off[0][i-1]
		}
		if ix+1 < g.nd[0] {
			sum += g.off[0][i]
		}
		if iy+1 < g.nd[1] {
			sum += g.off[1][i]
		}
		if iz+1 < g.nd[2] {
			sum += g.off[2][i]
		}
		if sum < 0 {
			sum = 0
		}
		g.sigma[i] = sum
		if ix++; ix == g.nd[0] {
			ix = 0
			if iy++; iy == g.nd[1] {
				iy = 0
				iz++
			}
		}
	}
}

// box is a coarsening's merge factor per axis: 2 along a coarsened axis, 1
// along one that keeps its cells.
type box [3]int

var (
	// boxFull coarsens every axis (1–2 axis grids; absent axes have extent
	// 1 and stay that way).
	boxFull = box{2, 2, 2}
	// boxZ coarsens z only (3-axis grids).
	boxZ = box{1, 1, 2}
)

// parent returns the coarse-cell index of fine cell i under the merge
// factors m (coarse coordinate = fine coordinate / m per axis).
func (g *geomGrid) parent(i int, cs [3]int, m box) int {
	fx := i % g.nd[0]
	rem := i / g.nd[0]
	fy := rem % g.nd[1]
	fz := rem / g.nd[1]
	return fz/m[2]*cs[2] + fy/m[1]*cs[1] + fx/m[0]
}

// coarsenGeom re-discretizes the next-coarser grid: 2× box merging along
// every axis m coarsens, series-collapsed face conductances along those
// axes and summed ones across the others, summed grounding, rebuilt
// diagonal. All passes are sequential over ascending cell indices, so the
// result is deterministic.
func coarsenGeom(f *geomGrid, m box) *geomGrid {
	c := &geomGrid{nd: [3]int{1, 1, 1}}
	for d := 0; d < 3; d++ {
		if f.nd[d] > 1 {
			c.nd[d] = (f.nd[d] + m[d] - 1) / m[d]
		}
	}
	c.n = c.nd[0] * c.nd[1] * c.nd[2]
	c.diag = make([]float64, c.n)
	c.sigma = make([]float64, c.n)
	for d := 0; d < 3; d++ {
		if c.nd[d] > 1 {
			c.off[d] = make([]float64, c.n)
		}
	}
	fs := f.strides()
	cs := c.strides()
	// Grounding sums over each box, children in ascending fine order.
	for i := 0; i < f.n; i++ {
		c.sigma[f.parent(i, cs, m)] += f.sigma[i]
	}
	// Face conductances: a coarse face along a coarsened axis d sits between
	// fine coordinates 2I+1 and 2I+2; walk the fine cells on its lower side.
	// Along an axis that keeps its cells every fine face is a coarse one.
	for d := 0; d < 3; d++ {
		if c.off[d] == nil {
			continue
		}
		off := f.off[d]
		for i := 0; i < f.n; i++ {
			fd := f.coord(i, d)
			if m[d] == 1 {
				if fd+1 < f.nd[d] {
					c.off[d][f.parent(i, cs, m)] += off[i]
				}
				continue
			}
			if fd%2 != 1 || fd+1 >= f.nd[d] {
				continue
			}
			gc := -off[i] // across the coarse face
			if !(gc > 0) {
				continue
			}
			gi := -off[i-fs[d]] // interior to the lower box (fd is odd, so its pair exists)
			if !(gi > 0) {
				continue
			}
			r := 1/gc + 0.5/gi
			if fd+2 < f.nd[d] { // upper box has a second cell
				gj := -off[i+fs[d]]
				if !(gj > 0) {
					continue
				}
				r += 0.5 / gj
			}
			c.off[d][f.parent(i, cs, m)] -= 1 / r
		}
	}
	// Diagonal: Σ adjacent conductances + grounding, in the stencil's
	// canonical −z,−y,−x,+x,+y,+z neighbor order.
	ix, iy, iz := 0, 0, 0
	for i := 0; i < c.n; i++ {
		sum := c.sigma[i]
		if iz > 0 {
			sum -= c.off[2][i-cs[2]]
		}
		if iy > 0 {
			sum -= c.off[1][i-cs[1]]
		}
		if ix > 0 {
			sum -= c.off[0][i-1]
		}
		if ix+1 < c.nd[0] {
			sum -= c.off[0][i]
		}
		if iy+1 < c.nd[1] {
			sum -= c.off[1][i]
		}
		if iz+1 < c.nd[2] {
			sum -= c.off[2][i]
		}
		c.diag[i] = sum
		if ix++; ix == c.nd[0] {
			ix = 0
			if iy++; iy == c.nd[1] {
				iy = 0
				iz++
			}
		}
	}
	return c
}

// operator wraps the grid's coefficient arrays as the level's matrix-free
// stencil.
func (g *geomGrid) operator() (*sparse.Stencil, error) {
	return sparse.NewStencilCoeffs([]int{g.nd[0], g.nd[1], g.nd[2]}, g.diag, g.off)
}

// geomLmax is the Gershgorin bound on the Jacobi-scaled spectrum of a
// geometric grid's operator, computed straight off the coefficient arrays —
// the prolongation-smoothing scale (the stencil row sum is diag + Σ|off|,
// and invD·diag = 1).
func geomLmax(g *geomGrid) float64 {
	lmax := 1.0
	ix, iy, iz := 0, 0, 0
	for i := 0; i < g.n; i++ {
		var off float64
		if iz > 0 {
			off -= g.off[2][i-g.nd[0]*g.nd[1]]
		}
		if iy > 0 {
			off -= g.off[1][i-g.nd[0]]
		}
		if ix > 0 {
			off -= g.off[0][i-1]
		}
		if ix+1 < g.nd[0] {
			off -= g.off[0][i]
		}
		if iy+1 < g.nd[1] {
			off -= g.off[1][i]
		}
		if iz+1 < g.nd[2] {
			off -= g.off[2][i]
		}
		if b := 1 + off/g.diag[i]; b > lmax {
			lmax = b
		}
		if ix++; ix == g.nd[0] {
			ix = 0
			if iy++; iy == g.nd[1] {
				iy = 0
				iz++
			}
		}
	}
	return lmax
}

// geomTransfer builds the prolongation from a fine to its coarse grid: the
// tentative prolongation injects each fine cell's parent value, and one
// damped-Jacobi pass smooths it, P = (I − ω·D⁻¹A)·P_box — the
// smoothed-aggregation fix of the approximation property, assembled directly
// from the stencil coefficients in one O(n) pass (no sparse product). Each
// fine row holds its own parent plus at most one neighboring parent per axis
// (the out-of-box neighbor), emitted in canonical −z,−y,−x,center,+x,+y,+z
// column order, so the arrays are deterministic. Restriction is Pᵀ.
func geomTransfer(f, c *geomGrid) *transfer {
	n := f.n
	cs := c.strides()
	fs := f.strides()
	omega := saOmega / geomLmax(f)
	p := &transfer{ptr: make([]int32, n+1), col: make([]int32, 0, 4*n), val: make([]float64, 0, 4*n)}
	for i := 0; i < n; i++ {
		pc := f.parent(i, cs, boxFull)
		s := omega / f.diag[i]
		// center accumulates the damped diagonal plus every in-box coupling;
		// lo/up[d] the couplings to the out-of-box parents pc ∓ cs[d].
		center := 1 - omega
		var lo, up [3]int32
		var wlo, wup [3]float64
		for d := 2; d >= 0; d-- {
			if f.nd[d] <= 1 {
				continue
			}
			fd := f.coord(i, d)
			if fd > 0 {
				w := -s * f.off[d][i-fs[d]]
				if fd%2 == 0 {
					lo[d], wlo[d] = int32(pc-cs[d]), w
				} else {
					center += w
				}
			}
			if fd+1 < f.nd[d] {
				w := -s * f.off[d][i]
				if fd%2 == 1 {
					up[d], wup[d] = int32(pc+cs[d]), w
				} else {
					center += w
				}
			}
		}
		for d := 2; d >= 0; d-- {
			if wlo[d] != 0 {
				p.col = append(p.col, lo[d])
				p.val = append(p.val, wlo[d])
			}
		}
		p.col = append(p.col, int32(pc))
		p.val = append(p.val, center)
		for d := 0; d < 3; d++ {
			if wup[d] != 0 {
				p.col = append(p.col, up[d])
				p.val = append(p.val, wup[d])
			}
		}
		p.ptr[i+1] = int32(len(p.col))
	}
	return p
}

// saOmega is the prolongation-smoothing damping 4/(3·λmax) applied to the
// Jacobi-scaled operator — the standard smoothed-aggregation choice, which
// damps the tentative prolongation's high-frequency content without
// overshooting on the upper spectrum.
const saOmega = 4.0 / 3.0

// transfer is a level's n×nc prolongation P in CSR layout: row pointers,
// column indices and values by fine row. The prolongation x += P·e and the
// restriction b_c = Pᵀ·r both walk its rows in ascending fine order.
type transfer struct {
	ptr []int32
	col []int32
	val []float64
}

// prolongAdd computes x += P·e. Each fine row sums in stored order.
func (tr *transfer) prolongAdd(e, x []float64) {
	for i := 0; i < len(tr.ptr)-1; i++ {
		var s float64
		for k := tr.ptr[i]; k < tr.ptr[i+1]; k++ {
			s += tr.val[k] * e[tr.col[k]]
		}
		x[i] += s
	}
}

// restrict computes b = Pᵀ·r by scattering the fine rows in ascending order.
// Every coarse sum starts from zero and adds its terms in ascending fine
// index, the order a row of the transposed matrix would sum them in.
func (tr *transfer) restrict(r, b []float64) {
	clear(b)
	for i := 0; i < len(tr.ptr)-1; i++ {
		for k := tr.ptr[i]; k < tr.ptr[i+1]; k++ {
			b[tr.col[k]] += tr.val[k] * r[i]
		}
	}
}

// buildFull assembles a fully coarsened hierarchy by repeated
// re-discretization and factors the coarsest grid directly.
func (h *Hierarchy) buildFull(a *sparse.Stencil, g *geomGrid) error {
	// Every level smooths by alternating-direction line relaxation (see
	// linesmooth.go); the finest level's factors come from the same
	// coefficient arrays the coarsening consumes.
	lv := newLevel(a)
	var err error
	if lv.lines, err = factorLines(g); err != nil {
		return err
	}
	h.levels = append(h.levels, lv)
	for g.n > coarsestSize && len(h.levels) < maxLevels {
		c := coarsenGeom(g, boxFull)
		if c.n >= g.n {
			break
		}
		h.levels[len(h.levels)-1].tr = geomTransfer(g, c)
		op, err := c.operator()
		if err != nil {
			return err
		}
		clv := newLevel(op)
		if clv.lines, err = factorLines(c); err != nil {
			return err
		}
		// W-cycle recursion target: dedicated correction scratch (never the
		// finest level, whose vectors belong to the caller).
		clv.b2 = make([]float64, c.n)
		clv.x2 = make([]float64, c.n)
		h.levels = append(h.levels, clv)
		g = c
	}
	if len(h.levels) < 2 {
		return nil
	}
	// Direct coarse solve: the band factor of the bottom level's stencil.
	op := h.levels[len(h.levels)-1].op
	if h.coarse, err = sparse.FactorCholesky(op, make([]float64, sparse.CholeskyLen(op))); err != nil {
		return fmt.Errorf("mg: coarse-grid factorization: %w", err)
	}
	return nil
}
