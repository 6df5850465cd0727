package fem

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

// The transient finite-volume solver below is a test oracle: it backs the
// check that Model B's settling time matches the reference field's
// (TestAxiTransientMatchesModelTimescale). The program's transient analysis
// runs the models' ladders only.

// assembleAxi discretizes the problem into a new context of its own.
func assembleAxi(p *AxiProblem) (*axiSystem, error) {
	return assembleAxiWith(NewSolveContext(), p)
}

// axiTransient is a transient finite-volume simulation: the stack starts at
// the heat-sink temperature, the sources switch on at t = 0, and implicit
// Euler steps integrate ρc·∂T/∂t = ∇·(k∇T) + q forward.
type axiTransient struct {
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

// solveAxiTransient integrates the problem for steps·dt seconds; capFn is
// the volumetric heat capacity (J/m³·K) at a cell center. Each implicit
// step solves (M/dt + K)·T' = M/dt·T + q. The step operator is fixed, so the
// grid rule is applied to it once: a banded LDLᵀ factor, formed once, makes
// every step two triangular sweeps; on a grid above the direct budget one
// multigrid hierarchy serves CG at every step, each started from zero.
func solveAxiTransient(p *AxiProblem, capFn func(r, z float64) float64, dt float64, steps int, opt sparse.Options) (*axiTransient, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("fem: transient step %g must be positive and finite", dt)
	}
	if steps < 1 {
		return nil, fmt.Errorf("fem: transient needs at least 1 step, got %d", steps)
	}
	if capFn == nil {
		return nil, fmt.Errorf("fem: transient solve needs a heat-capacity function")
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
		dz := p.ZEdges[j+1] - p.ZEdges[j]
		for i := 0; i < sys.nr; i++ {
			rw, re := p.REdges[i], p.REdges[i+1]
			vol := math.Pi * (re*re - rw*rw) * dz
			row := j*sys.nr + i
			c := capFn(sys.rc[i], sys.zc[j])
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("fem: heat capacity %g at (r=%g, z=%g) must be positive and finite",
					c, sys.rc[i], sys.zc[j])
			}
			mOverDt[row] = vol * c / dt
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
	out := &axiTransient{}
	for k := 1; k <= steps; k++ {
		for i := range rhs {
			rhs[i] = sys.rhs[i] + mOverDt[i]*x[i]
		}
		xNew, st, err := sc.solveSystem(ctx, stepOp, rhs, o)
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
	return out, nil
}

// settlingTime returns the first simulated instant after which the maximum
// temperature stays within fraction of its final value, and whether it
// settled before the horizon's final sample.
func (t *axiTransient) settlingTime(fraction float64) (float64, bool) {
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

// stackCap is the volumetric heat capacity of BuildAxiProblem's unit cell
// for s: the via fill and liner inside their radii where the via runs, each
// layer's bulk material elsewhere.
func stackCap(t testing.TB, s *stack.Stack) func(r, z float64) float64 {
	t.Helper()
	rVia := s.Via.SplitRadius()
	rLiner := rVia + s.Via.LinerThickness
	spans, err := buildLayerSpans(s, s.Footprint/float64(s.Via.EffectiveCount()))
	if err != nil {
		t.Fatal(err)
	}
	return func(r, z float64) float64 {
		sp := locateSpan(spans, z)
		if sp == nil {
			return math.NaN()
		}
		if sp.inVia {
			if r < rVia {
				return s.Via.Fill.C
			}
			if r < rLiner {
				return s.Via.Liner.C
			}
		}
		return sp.mat.C
	}
}

func TestAxiTransientSlabDecayTimeConstant(t *testing.T) {
	// A uniform slab (bottom fixed at 0, top adiabatic) relaxing from T = 1
	// decays with the fundamental time constant tau = (2H/π)²/α.
	const (
		k, c = 10.0, 2e6
		h    = 1e-3
	)
	alpha := k / c
	tau := (2 * h / math.Pi) * (2 * h / math.Pi) / alpha
	r, _ := mesh.Uniform(0, 1e-4, 2)
	z, _ := mesh.Uniform(0, h, 60)
	p := &AxiProblem{
		REdges: r, ZEdges: z,
		K:      func(_, _ float64) float64 { return k },
		Bottom: Fixed(0), Top: Insulated(), Outer: Insulated(),
	}
	// Run from a heated steady state: first heat with a source to steady,
	// then remove the source and watch the decay. Simpler: heat step and
	// compare against the complementary behavior — the rise towards steady
	// has the same fundamental time constant.
	p.Q = func(_, _ float64) float64 { return 1e7 }
	dt := tau / 50
	steps := int(6 * tau / dt)
	tr, err := solveAxiTransient(p, func(_, _ float64) float64 { return c }, dt, steps, sparse.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	final := tr.MaxT[len(tr.MaxT)-1]
	// Steady max: qH²/2k.
	if want := 1e7 * h * h / (2 * k); units.RelErr(final, want) > 0.02 {
		t.Fatalf("final %g, want %g", final, want)
	}
	// Find when the max reaches (1 - 1/e·8/π²) of steady: for the dominant
	// mode, T_top(t) = T_ss·(1 - (8/π²)·exp(-t/tau) + ...). Measure the time
	// where the deficit drops by e and compare to tau.
	deficit0 := final - tr.MaxT[0]
	var tAtE float64
	for i, v := range tr.MaxT {
		if final-v <= deficit0/math.E {
			tAtE = tr.Times[i] - tr.Times[0]
			break
		}
	}
	if tAtE == 0 {
		t.Fatal("never decayed by 1/e")
	}
	if tAtE < 0.6*tau || tAtE > 1.6*tau {
		t.Errorf("1/e time %g, analytic tau %g", tAtE, tau)
	}
}

func TestAxiTransientConvergesToSteady(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	static, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := static.MaxT()
	// The block's slowest constant is ~ms (500 µm silicon); 40 ms suffices.
	tr, err := solveAxiTransient(p, stackCap(t, s), 1e-3, 40, sparse.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MaxT[len(tr.MaxT)-1]
	if units.RelErr(got, want) > 0.01 {
		t.Fatalf("transient final %g vs steady %g", got, want)
	}
	fmax, _, _ := tr.Final.MaxT()
	if units.RelErr(fmax, got) > 1e-12 {
		t.Errorf("Final field max %g vs trace %g", fmax, got)
	}
}

func TestAxiTransientMonotoneRise(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := solveAxiTransient(p, stackCap(t, s), 2e-4, 60, sparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, v := range tr.MaxT {
		if v < prev-1e-9 {
			t.Fatalf("max T dropped at step %d: %g after %g", i, v, prev)
		}
		prev = v
	}
}

func TestAxiTransientMatchesModelTimescale(t *testing.T) {
	// The distributed model's settling time and the reference solver's must
	// agree within a factor ~1.6 (B(30) 10.5 ms against the FVM's 6.5 ms) —
	// the transient extension's key validation.
	if testing.Short() {
		t.Skip("transient cross-validation is slow")
	}
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := solveAxiTransient(p, stackCap(t, s), 2.5e-4, 160, sparse.Options{}) // 40 ms
	if err != nil {
		t.Fatal(err)
	}
	refSettle, ok := tr.settlingTime(0.05)
	if !ok {
		t.Fatal("reference did not settle")
	}
	mb, err := core.NewModelB(30).SolveTransient(s, core.TransientSpec{Dt: 2.5e-4, Steps: 160})
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Settled {
		t.Fatal("Model B did not settle")
	}
	ratio := mb.SettlingTime / refSettle
	if ratio < 1.4 || ratio > 1.9 {
		t.Errorf("settling times diverge: model %g s vs reference %g s (ratio %.3f, want 1.4–1.9)", mb.SettlingTime, refSettle, ratio)
	}
}

func TestAxiTransientValidation(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveAxiTransient(p, stackCap(t, s), 0, 10, sparse.Options{}); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := solveAxiTransient(p, stackCap(t, s), 1e-3, 0, sparse.Options{}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := solveAxiTransient(p, nil, 1e-3, 5, sparse.Options{}); err == nil {
		t.Error("missing capacity accepted")
	}
	if _, err := solveAxiTransient(p, func(_, _ float64) float64 { return -1 }, 1e-3, 5, sparse.Options{}); err == nil {
		t.Error("negative capacity accepted")
	}
}

// fig4At builds the Fig. 4 stack at a radius in µm (shared test helper).
func fig4At(rUM float64) (*stack.Stack, error) {
	return stack.Fig4Block(units.UM(rUM))
}
