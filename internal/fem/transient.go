package fem

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// AxiTransient is a transient finite-volume simulation: the stack starts at
// the heat-sink temperature, the sources switch on at t = 0, and implicit
// Euler steps integrate ρc·∂T/∂t = ∇·(k∇T) + q forward.
type AxiTransient struct {
	// Times lists the simulated instants (s).
	Times []float64
	// MaxT is the domain-maximum temperature rise at each instant.
	MaxT []float64
	// Final is the temperature field at the last step.
	Final *AxiSolution
	// Stats aggregates the per-step linear solves: Iterations and Wall are
	// summed over all steps, the remaining fields describe the last step.
	Stats sparse.Stats
}

// SolveAxiTransient integrates the problem for steps·dt seconds. The problem
// must supply a Cap function (volumetric heat capacity). Each implicit step
// solves (M/dt + K)·T' = M/dt·T + q. The step operator is fixed, so the grid
// rule is applied to it once: a banded LDLᵀ factor, formed once, makes
// every step two triangular sweeps; on a grid above the direct budget one
// multigrid hierarchy serves CG at every step, warm-started from the
// previous instant.
func SolveAxiTransient(p *AxiProblem, dt float64, steps int, opt sparse.Options) (*AxiTransient, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("fem: transient step %g must be positive and finite", dt)
	}
	if steps < 1 {
		return nil, fmt.Errorf("fem: transient needs at least 1 step, got %d", steps)
	}
	if p.Cap == nil {
		return nil, fmt.Errorf("fem: transient solve needs a heat-capacity function (Cap)")
	}
	sys, err := assembleAxi(p)
	if err != nil {
		return nil, err
	}
	n := len(sys.rhs)
	// Lumped mass over dt, m_i = V_i·c_i/dt: the step operator K + M/dt is
	// the steady stencil with m added to its diagonal, sharing the steady
	// off-diagonal arrays.
	diag, off := sys.op.Coeffs()
	mOverDt := make([]float64, n)
	stepDiag := make([]float64, n)
	for j := 0; j < sys.nz; j++ {
		for i := 0; i < sys.nr; i++ {
			row := j*sys.nr + i
			c := p.Cap(sys.rc[i], sys.zc[j])
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("fem: heat capacity %g at (r=%g, z=%g) must be positive and finite",
					c, sys.rc[i], sys.zc[j])
			}
			mOverDt[row] = sys.volumes[row] * c / dt
			stepDiag[row] = diag[row] + mOverDt[row]
		}
	}
	stepOp, err := sparse.NewStencilCoeffs(sys.op.Dims(), stepDiag, off)
	if err != nil {
		return nil, fmt.Errorf("fem: internal: %w", err)
	}

	o := opt
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	// Every step solves the step operator K + M/dt, not the steady one,
	// through one private context: the first step factors it (or builds its
	// hierarchy), and each later step finds the coefficients unchanged and
	// reuses the factor, its scratch pool and the hierarchy.
	sc := NewSolveContext()
	defer sc.Close()
	ctx := context.Background()
	x := make([]float64, n)
	rhs := make([]float64, n)
	out := &AxiTransient{}
	for k := 1; k <= steps; k++ {
		for i := range rhs {
			rhs[i] = sys.rhs[i] + mOverDt[i]*x[i]
		}
		o.X0 = x
		xNew, st, err := sc.solveSystem(ctx, asmKey{}, stepOp, rhs, o)
		if err != nil {
			return nil, solveErr(fmt.Sprintf("transient step %d", k), n, st, err)
		}
		x = xNew
		iters, wall, fac := out.Stats.Iterations+st.Iterations, out.Stats.Wall+st.Wall, out.Stats.Factor+st.Factor
		out.Stats = st
		out.Stats.Iterations, out.Stats.Wall, out.Stats.Factor = iters, wall, fac
		var max float64 = math.Inf(-1)
		for _, v := range x {
			if v > max {
				max = v
			}
		}
		out.Times = append(out.Times, float64(k)*dt)
		out.MaxT = append(out.MaxT, max)
	}
	out.Final = &AxiSolution{p: p, RCenters: sys.rc, ZCenters: sys.zc, T: sys.fieldFrom(x), Stats: out.Stats}
	obs.Default().Counter("fem.transient.steps").Add(int64(steps))
	return out, nil
}

// SettlingTime returns the first simulated instant after which the maximum
// temperature stays within fraction of its final value, and whether it
// settled before the horizon's final sample.
func (t *AxiTransient) SettlingTime(fraction float64) (float64, bool) {
	final := t.MaxT[len(t.MaxT)-1]
	band := math.Abs(final) * fraction
	settledAt := -1
	for k, v := range t.MaxT {
		if math.Abs(v-final) <= band {
			if settledAt < 0 {
				settledAt = k
			}
		} else {
			settledAt = -1
		}
	}
	if settledAt < 0 || settledAt == len(t.MaxT)-1 {
		return t.Times[len(t.Times)-1], false
	}
	return t.Times[settledAt], true
}
