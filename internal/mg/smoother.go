package mg

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// newSmoother prepares the level's Chebyshev smoother: the inverse diagonal
// and the eigenvalue bounds [λmax/smootherRange, λmax] of the Jacobi-scaled
// operator B = D⁻¹A (Gershgorin upper bound). Unlike the standalone Chebyshev
// preconditioner — which targets the whole spectrum — a smoother only has
// to damp the upper part; the coarse-grid correction handles the rest. A
// narrower interval makes the low-degree polynomial far more effective on
// the modes it owns. It reads the level through the Operator interface, so
// stencil and CSR levels share it.
func (lv *level) newSmoother(mem *arena) error {
	op := lv.op
	n := op.Rows()
	d := op.DiagonalInto(mem.f64(n))
	inv := mem.f64(n)
	for i, v := range d {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mg: diagonal %g at row %d of a %d-cell level (matrix not SPD?)", v, i, n)
		}
		inv[i] = 1 / v
	}
	rowAbs := op.AbsRowSumsInto(mem.f64(n))
	var lmax float64
	for i := 0; i < n; i++ {
		if b := rowAbs[i] * inv[i]; b > lmax {
			lmax = b
		}
	}
	if lmax <= 0 || math.IsNaN(lmax) || math.IsInf(lmax, 0) {
		return fmt.Errorf("mg: smoother eigenvalue bound %g", lmax)
	}
	lmin := lmax / smootherRange
	lv.invDiag = inv
	lv.lmax = lmax
	lv.theta = (lmax + lmin) / 2
	lv.delta = (lmax - lmin) / 2
	return nil
}

// smooth applies the level's smoother to B·z = ?·r from z = 0: the fixed-
// degree Chebyshev semi-iteration on the Jacobi-scaled operator (Saad,
// Iterative Methods, alg. 12.1) for Galerkin levels, the alternating-
// direction line relaxation for geometric levels (see smoothLines). Either
// way z is a fixed linear operator applied to r, every step a pooled matvec,
// line solve or element-wise update on the deterministic chunk grid, so the
// result is bit-identical for any worker count. z must not alias r or the
// scratch. reverse selects the adjoint sweep order (meaningful only for the
// line smoother, whose axis sweeps do not commute): the post-smoother passes
// true so the cycle stays a symmetric operator.
func (lv *level) smooth(z, r []float64, p *sparse.Pool, reverse bool) {
	if lv.lines != nil {
		lv.smoothLines(z, r, p, reverse)
		return
	}
	a := lv.op
	d, res, t := lv.cd, lv.cres, lv.ct
	// The element-wise recurrence steps run through sparse's fused Cheby
	// kernels: a smoother application sits inside every vcycle of every CG
	// iteration, and closure-based Range calls here allocated on each one.
	sigma := lv.theta / lv.delta
	rhoOld := 1 / sigma
	invD := lv.invDiag
	p.ChebyBegin(z, d, res, invD, r, 1/lv.theta)
	for k := 2; k <= smootherDegree; k++ {
		p.MulVecOp(a, d, t)
		rho := 1 / (2*sigma - rhoOld)
		p.ChebyStep(z, d, res, invD, t, rho*rhoOld, 2*rho/lv.delta)
		rhoOld = rho
	}
}
