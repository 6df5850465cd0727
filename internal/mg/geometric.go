package mg

// Geometric hierarchy construction, Build's choice for grids with 1–2 axes.
//
// The smoothed-aggregation path builds every coarse operator as a Galerkin
// product Pᵀ·A·P — two sparse matrix-matrix products per level whose
// append-grown CSRs dominate fresh-build wall time and memory. On the
// axisymmetric finite-volume grid behind the reference solver none of that
// machinery is needed: the matrix IS a 7-point conductance network with a
// nonnegative grounding (the Dirichlet boundary terms), and a coarse grid is
// just the same network with 2×-per-axis merged cells. Each coarse level is
// therefore re-discretized directly:
//
//   - Cells merge in 2×2×2 boxes (an odd extent leaves a final unpaired
//     cell). The coarse coupling across a coarse face sums, over the fine
//     cells of the face, the series collapse of the fine conductance chain
//     from box center to box center:
//
//       g_chain = 1 / (0.5/g_in(I) + 1/g_cross + 0.5/g_in(J))
//
//     where g_cross is the fine face conductance across the coarse face and
//     g_in the fine conductance interior to each box along the same axis
//     (the half terms vanish for unpaired single-cell boxes). On a uniform
//     1-D grid this reduces to k·A/(2h) — exactly the conductance of a grid
//     with doubled spacing, which is what plain aggregation (merged nodes,
//     g_c = g_cross) gets wrong by 2×.
//   - The grounding σ_i = diag_i − Σ g (clamped at zero against floating-
//     point cancellation on interior rows) sums over each box.
//   - The coarse diagonal rebuilds as Σ adjacent g_c + σ_c, so every level
//     stays a conductance network with nonnegative grounding — symmetric
//     positive (semi-)definite by construction, positive definite whenever
//     the fine system was grounded.
//
// Each level stores four coefficient arrays (diagonal + one per axis) behind
// a coefficient-backed sparse.Stencil — no coarse CSR exists at all. The
// prolongation is the box injection smoothed by one damped-Jacobi pass,
// P = (I − ω·D⁻¹A)·P_box, assembled directly from the stencil coefficients
// in a single O(n) pass (see geomTransfer) and stored as raw CSR triples for
// the pool's deterministic transfer kernels. Because full 2×-per-axis
// coarsening preserves anisotropy ratios level after level, the levels
// smooth with the alternating-direction line smoother (linesmooth.go)
// instead of point Chebyshev, and cycle as a truncated W-cycle (see
// vcycle). The whole build is a handful of O(n) passes.

import (
	"fmt"

	"repro/internal/linalg"
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
func geomFromStencil(a *sparse.Stencil, mem *arena) (*geomGrid, error) {
	g := &geomGrid{nd: [3]int{1, 1, 1}, n: a.Rows()}
	for i, d := range a.Dims() {
		g.nd[i] = d
	}
	g.diag, g.off = a.Coeffs()
	for d := 0; d < 3; d++ {
		for i := 0; i < g.n; i++ {
			if g.coord(i, d)+1 < g.nd[d] && g.off[d][i] > 0 {
				return nil, fmt.Errorf("mg: positive off-diagonal %g at (%d,%d); geometric hierarchy needs a conductance network",
					g.off[d][i], i, i+g.strides()[d])
			}
		}
	}
	g.sigma = mem.f64(g.n)
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

// parent returns the coarse-cell index of fine cell i under 2× box
// coarsening (coarse coordinate = fine coordinate / 2 on every axis; axes of
// extent 1 stay at coordinate 0 either way).
func (g *geomGrid) parent(i int, cs [3]int) int {
	fx := i % g.nd[0]
	rem := i / g.nd[0]
	fy := rem % g.nd[1]
	fz := rem / g.nd[1]
	return fz/2*cs[2] + fy/2*cs[1] + fx/2
}

// coarsenGeom re-discretizes the next-coarser grid: 2× box merging per axis,
// series/parallel-collapsed face conductances, summed grounding, rebuilt
// diagonal. All passes are sequential over ascending cell indices, so the
// result is deterministic (and a recycled rebuild bit-identical).
func coarsenGeom(f *geomGrid, mem *arena) *geomGrid {
	c := &geomGrid{nd: [3]int{1, 1, 1}}
	for d := 0; d < 3; d++ {
		if f.nd[d] > 1 {
			c.nd[d] = (f.nd[d] + 1) / 2
		}
	}
	c.n = c.nd[0] * c.nd[1] * c.nd[2]
	c.diag = mem.f64(c.n)
	c.sigma = mem.f64(c.n)
	for d := 0; d < 3; d++ {
		if c.nd[d] > 1 {
			c.off[d] = mem.f64(c.n)
		}
	}
	fs := f.strides()
	cs := c.strides()
	// Grounding sums over each box, children in ascending fine order.
	for i := 0; i < f.n; i++ {
		c.sigma[f.parent(i, cs)] += f.sigma[i]
	}
	// Face conductances: a coarse face along axis d sits between fine
	// coordinates 2I+1 and 2I+2; walk the fine cells on its lower side.
	for d := 0; d < 3; d++ {
		if c.off[d] == nil {
			continue
		}
		off := f.off[d]
		for i := 0; i < f.n; i++ {
			fd := f.coord(i, d)
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
			c.off[d][f.parent(i, cs)] -= 1 / r
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

// geomTransfer builds the transfer pair between a fine and its coarse grid
// as raw CSR triples: the tentative prolongation injects each fine cell's
// parent value, and one damped-Jacobi pass smooths it, P = (I − ω·D⁻¹A)·P_box
// — the same approximation-property fix the smoothed-aggregation path applies,
// but assembled directly from the stencil coefficients in one O(n) pass (no
// sparse product). Each fine row holds its own parent plus at most one
// neighboring parent per axis (the out-of-box neighbor), emitted in canonical
// −z,−y,−x,center,+x,+y,+z column order, so the arrays are deterministic and
// the counting-sort transpose lands sorted. Restriction is Pᵀ.
func geomTransfer(f, c *geomGrid, mem *arena) *transfer {
	n, nc := f.n, c.n
	cs := c.strides()
	fs := f.strides()
	omega := saOmega / geomLmax(f)
	p := csrArrays{ptr: mem.i32(n + 1), col: mem.i32cap(4 * n), val: mem.f64cap(4 * n)}
	for i := 0; i < n; i++ {
		pc := f.parent(i, cs)
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
	mem.adoptI32(p.col)
	mem.adoptF64(p.val)
	pt := transpose(p, nc, mem)
	return &transfer{
		pPtr: p.ptr, pCol: p.col, pVal: p.val,
		ptPtr: pt.ptr, ptCol: pt.col, ptVal: pt.val,
	}
}

// buildGeometric assembles the hierarchy's levels by repeated
// re-discretization and factors the coarsest grid densely, with the same
// stopping rules as the Galerkin builder.
func (h *Hierarchy) buildGeometric(a *sparse.Stencil, mem *arena) error {
	n := a.Rows()
	g, err := geomFromStencil(a, mem)
	if err != nil {
		return err
	}
	lv, err := newLevel(a, mem)
	if err != nil {
		return err
	}
	// Every geometric level smooths by alternating-direction line relaxation
	// (see linesmooth.go); the finest level's factors come from the same
	// coefficient arrays the coarsening consumes.
	if lv.lines, err = factorLines(g, mem); err != nil {
		return err
	}
	h.levels = append(h.levels, lv)
	for g.n > coarsestSize && len(h.levels) < maxLevels {
		c := coarsenGeom(g, mem)
		if c.n >= g.n {
			break
		}
		h.levels[len(h.levels)-1].tr = geomTransfer(g, c, mem)
		op, err := c.operator()
		if err != nil {
			return err
		}
		clv, err := newLevel(op, mem)
		if err != nil {
			return err
		}
		if clv.lines, err = factorLines(c, mem); err != nil {
			return err
		}
		// W-cycle recursion target: dedicated correction scratch (never the
		// finest level, whose vectors belong to the caller).
		clv.b2 = mem.f64(c.n)
		clv.x2 = mem.f64(c.n)
		h.levels = append(h.levels, clv)
		g = c
	}
	if len(h.levels) < 2 {
		return fmt.Errorf("mg: %d unknowns cannot coarsen (already at or below the coarse-solve size)", n)
	}
	// Direct coarse solve from the bottom grid's coefficients.
	nb := g.n
	chol, err := linalg.FactorizeCholeskyInto(denseFromGeom(g, mem),
		linalg.NewMatrixWithData(nb, nb, mem.f64(nb*nb)))
	if err != nil {
		return fmt.Errorf("mg: coarse-grid factorization: %w", err)
	}
	h.coarse = chol
	return nil
}

// denseFromGeom expands the coarsest grid's stencil into the dense matrix
// the Cholesky factorization consumes.
func denseFromGeom(g *geomGrid, mem *arena) *linalg.Matrix {
	m := linalg.NewMatrixWithData(g.n, g.n, mem.f64(g.n*g.n))
	s := g.strides()
	ix, iy, iz := 0, 0, 0
	for i := 0; i < g.n; i++ {
		m.Set(i, i, g.diag[i])
		if ix+1 < g.nd[0] {
			m.Set(i, i+1, g.off[0][i])
			m.Set(i+1, i, g.off[0][i])
		}
		if iy+1 < g.nd[1] {
			m.Set(i, i+s[1], g.off[1][i])
			m.Set(i+s[1], i, g.off[1][i])
		}
		if iz+1 < g.nd[2] {
			m.Set(i, i+s[2], g.off[2][i])
			m.Set(i+s[2], i, g.off[2][i])
		}
		if ix++; ix == g.nd[0] {
			ix = 0
			if iy++; iy == g.nd[1] {
				iy = 0
				iz++
			}
		}
	}
	return m
}
