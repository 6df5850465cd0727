package mg

// Semicoarsening with plane relaxation, the hierarchy of 3-axis grids.
//
// The 3-D stacks couple strongly along different axes in different places:
// a thin layer's cells couple hardest in z, a bulk or via cell in the plane.
// Full coarsening with alternating lines leaves modes smooth along two
// strong axes at once that neither a line solve nor the coarse grid
// reaches. The remedy is to coarsen only z, 2:1 with coarsenGeom (series-
// collapsed z faces, summed lateral faces), and relax whole xy-planes at
// once: an exact plane solve damps every mode oscillatory in z, whatever the
// in-plane coupling, and every in-plane mode keeps its resolution on the
// coarse levels. The hierarchy ends at a single plane, which its plane
// solve handles exactly, so no separate coarse factor is needed.
//
// The smoother is block Gauss–Seidel over the planes: a forward sweep
// (ascending z) before the coarse correction and a backward one after — the
// adjoint pair, which keeps the V-cycle a fixed symmetric positive definite
// operator. Each plane block is the 2-D stencil of the level restricted to
// the plane, factored once per build by sparse.FactorCholesky (half-
// bandwidth nx).

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// planeAxis holds a level's plane solver: the banded LDLᵀ factor of each
// xy-plane's block, ascending in z, and the z couplings between planes.
type planeAxis struct {
	nxy int
	// offZ[i] = A[i, i+nxy], nil on a single plane.
	offZ []float64
	f    []*linalg.Band
}

// factorPlanes factors the plane blocks of g. Each block is g's diagonal
// and in-plane couplings over the plane — the arrays are sliced, not copied,
// into a 2-D stencil — and all factors share one buffer.
func factorPlanes(g *geomGrid) (*planeAxis, error) {
	nxy, nz := g.nd[0]*g.nd[1], g.nd[2]
	pa := &planeAxis{nxy: nxy, offZ: g.off[2], f: make([]*linalg.Band, nz)}
	var buf []float64
	for p := range nz {
		lo, hi := p*nxy, (p+1)*nxy
		var off [3][]float64
		for d := range 2 {
			if g.off[d] != nil {
				off[d] = g.off[d][lo:hi]
			}
		}
		st, err := sparse.NewStencilCoeffs([]int{g.nd[0], g.nd[1]}, g.diag[lo:hi], off)
		if err != nil {
			return nil, err
		}
		w := sparse.CholeskyLen(st)
		if buf == nil {
			buf = make([]float64, nz*w)
		}
		if pa.f[p], err = sparse.FactorCholesky(st, buf[p*w:(p+1)*w]); err != nil {
			return nil, fmt.Errorf("mg: plane %d of a %v level: %w", p, g.nd, err)
		}
	}
	return pa, nil
}

// smoothPlanes runs one plane Gauss–Seidel sweep from z = 0: each plane in
// turn is solved exactly against r minus its coupling to the plane already
// done, ascending in z, or descending when reverse is set (the adjoint
// order, for post-smoothing). z must not alias r or the scratch.
func (lv *level) smoothPlanes(z, r []float64, reverse bool) {
	pa, rhs := lv.planes, lv.cres
	nxy, nz := pa.nxy, len(pa.f)
	for t := range nz {
		p := t
		if reverse {
			p = nz - 1 - t
		}
		lo, hi := p*nxy, (p+1)*nxy
		switch {
		case t == 0:
			copy(rhs[lo:hi], r[lo:hi])
		case reverse:
			for i := lo; i < hi; i++ {
				rhs[i] = r[i] - pa.offZ[i]*z[i+nxy]
			}
		default:
			for i := lo; i < hi; i++ {
				rhs[i] = r[i] - pa.offZ[i-nxy]*z[i-nxy]
			}
		}
		pa.f[p].Solve(z[lo:hi], rhs[lo:hi])
	}
}

// zTransfer builds the prolongation for z-semicoarsening: linear
// interpolation in z between a fine cell's own coarse cell and the nearer
// neighboring one, weighted by resistance distance. A coarse
// cell sits at the resistance midpoint of its two fine cells, so a fine cell
// lies 0.5/g_in from its own coarse cell and 1/g_cross + 0.5/g_in' from the
// neighbor — the same chain whose series collapse is the coarse z
// conductance. Unpaired cells and the outermost half-planes inject.
// Restriction is Pᵀ.
func zTransfer(f *geomGrid) *transfer {
	n, nxy, nz := f.n, f.nd[0]*f.nd[1], f.nd[2]
	off := f.off[2]
	// half is the resistance from the fine cell i, the lower cell of the box
	// starting at plane fz, to the box's center.
	half := func(i, fz int) float64 {
		if fz+1 >= nz {
			return 0
		}
		return 0.5 / -off[i]
	}
	p := &transfer{ptr: make([]int32, n+1), col: make([]int32, 0, 2*n), val: make([]float64, 0, 2*n)}
	for i := range n {
		fz := i / nxy
		pc := int32(i%nxy + fz/2*nxy)
		q := int32(-1) // the neighboring coarse cell
		var own, other float64
		if fz%2 == 0 {
			own = half(i, fz)
			if fz > 0 {
				q, other = pc-int32(nxy), 1/-off[i-nxy]+half(i-2*nxy, fz-2)
			}
		} else {
			own = half(i-nxy, fz-1)
			if fz+1 < nz {
				q, other = pc+int32(nxy), 1/-off[i]+half(i+nxy, fz+1)
			}
		}
		w := own / (own + other) // the neighbor's weight
		switch {
		case q < 0 || !(w > 0 && w < 1):
			p.col = append(p.col, pc)
			p.val = append(p.val, 1)
		case q < pc:
			p.col = append(p.col, q, pc)
			p.val = append(p.val, w, 1-w)
		default:
			p.col = append(p.col, pc, q)
			p.val = append(p.val, 1-w, w)
		}
		p.ptr[i+1] = int32(len(p.col))
	}
	return p
}

// buildPlanes assembles a z-semicoarsened hierarchy down to a single plane,
// factoring every level's plane blocks.
func (h *Hierarchy) buildPlanes(a *sparse.Stencil, g *geomGrid) error {
	lv := newLevel(a)
	for {
		var err error
		if lv.planes, err = factorPlanes(g); err != nil {
			return err
		}
		h.levels = append(h.levels, lv)
		if g.nd[2] == 1 {
			return nil
		}
		c := coarsenGeom(g, boxZ)
		lv.tr = zTransfer(g)
		op, err := c.operator()
		if err != nil {
			return err
		}
		lv, g = newLevel(op), c
	}
}
