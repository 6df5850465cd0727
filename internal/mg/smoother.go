package mg

import (
	"fmt"
	"math"
)

// newSmoother prepares the level's Chebyshev smoother: the inverse diagonal
// and the eigenvalue bounds [λmax/smootherRange, λmax] of the Jacobi-scaled
// operator B = D⁻¹A (Gershgorin upper bound). A smoother only has to damp
// the upper part of the spectrum; the coarse-grid correction handles the
// rest. A narrow interval makes the low-degree polynomial far more
// effective on the modes it owns. It reads the level through the Operator interface, so
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
// way z is a fixed linear operator applied to r. z must not alias r or the
// scratch. reverse selects the adjoint sweep order (meaningful only for the
// line smoother, whose axis sweeps do not commute): the post-smoother passes
// true so the cycle stays a symmetric operator.
func (lv *level) smooth(z, r []float64, reverse bool) {
	if lv.lines != nil {
		lv.smoothLines(z, r, reverse)
		return
	}
	a := lv.op
	d, res, t := lv.cd, lv.cres, lv.ct
	sigma := lv.theta / lv.delta
	rhoOld := 1 / sigma
	invD := lv.invDiag
	chebyBegin(z, d, res, invD, r, 1/lv.theta)
	for k := 2; k <= smootherDegree; k++ {
		a.SpanMulVec(d, t, 0, len(t))
		rho := 1 / (2*sigma - rhoOld)
		chebyStep(z, d, res, invD, t, rho*rhoOld, 2*rho/lv.delta)
		rhoOld = rho
	}
}

// chebyBegin runs the first step of the Chebyshev semi-iteration on
// B·z = D⁻¹r from z = 0: res = D⁻¹r, d = res/θ, z = d.
func chebyBegin(z, d, res, invD, r []float64, invTheta float64) {
	for i := range r {
		rh := invD[i] * r[i]
		res[i] = rh
		di := rh * invTheta
		d[i] = di
		z[i] = di
	}
}

// chebyStep runs one subsequent step of the Chebyshev semi-iteration given
// t = A·d: res -= D⁻¹t, d = c1·d + c2·res, z += d.
func chebyStep(z, d, res, invD, t []float64, c1, c2 float64) {
	for i := range res {
		ri := res[i] - invD[i]*t[i] // res -= B·d (previous correction)
		res[i] = ri
		di := c1*d[i] + c2*ri
		d[i] = di
		z[i] += di
	}
}
