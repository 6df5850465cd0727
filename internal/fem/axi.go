package fem

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// AxiProblem is a steady heat-conduction problem on an axisymmetric (r, z)
// structured mesh. The axis r = 0 is always a symmetry (zero-flux) boundary.
type AxiProblem struct {
	// REdges and ZEdges are the strictly increasing cell edge coordinates.
	// REdges[0] must be 0 (the symmetry axis).
	REdges, ZEdges []float64
	// K returns the thermal conductivity (W/m·K) at a cell center.
	K func(r, z float64) float64
	// Q returns the volumetric heat source (W/m³) at a cell center; may be
	// nil for a source-free problem.
	Q func(r, z float64) float64
	// Bottom, Top and Outer are the boundary conditions at z = ZEdges[0],
	// z = ZEdges[end] and r = REdges[end]. At least one must be Dirichlet.
	Bottom, Top, Outer BC
}

// AxiSolution is a solved axisymmetric temperature field.
type AxiSolution struct {
	p *AxiProblem
	// T holds cell-center temperatures indexed [iz][ir].
	T [][]float64
	// RCenters and ZCenters are the cell center coordinates.
	RCenters, ZCenters []float64
	// Stats reports the linear solve.
	Stats sparse.Stats
}

// Validate checks the problem definition.
func (p *AxiProblem) Validate() error {
	if err := mesh.Validate(p.REdges); err != nil {
		return fmt.Errorf("fem: r edges: %w", err)
	}
	if err := mesh.Validate(p.ZEdges); err != nil {
		return fmt.Errorf("fem: z edges: %w", err)
	}
	if p.REdges[0] != 0 {
		return fmt.Errorf("fem: axisymmetric mesh must start at the axis r = 0, got %g", p.REdges[0])
	}
	if p.K == nil {
		return fmt.Errorf("fem: conductivity function K is nil")
	}
	if p.Bottom.Kind != Dirichlet && p.Top.Kind != Dirichlet && p.Outer.Kind != Dirichlet {
		return fmt.Errorf("fem: at least one boundary must be Dirichlet (temperature would be undefined)")
	}
	return nil
}

// axiSystem is the assembled finite-volume system of an AxiProblem.
type axiSystem struct {
	nr, nz int
	rc, zc []float64
	op     *sparse.Stencil
	rhs    []float64
}

// fieldFrom reshapes a flat unknown vector into the [iz][ir] grid. The rows
// are slices of x itself, which the field then owns: the solver grabbed x
// from the context's pool, and a solve that keeps its field never releases
// it, so the reshape allocates only the row headers.
func (sys *axiSystem) fieldFrom(x []float64) [][]float64 {
	t := make([][]float64, sys.nz)
	for j := 0; j < sys.nz; j++ {
		t[j] = x[j*sys.nr : (j+1)*sys.nr : (j+1)*sys.nr]
	}
	return t
}

// SolveAxiWith assembles and solves the finite-volume system through the
// reuse context sc, recycling the state it holds or takes for the problem's
// shape (see SolveContext); a nil sc means one of the package's own, handed
// back after the solve, error or not. The results are bit-identical to a
// cold solve either way. The zero Options value selects the defaults.
//
// A direct solve checks ctx before factoring and before its sweeps, a CG
// solve between iterations, so a cancelled caller (e.g. an aborted sweep)
// does not run an in-flight solve to completion. When ctx carries an
// obs.Tracer the solve emits a "fem.solve" span with "fem.assemble" and
// "fem.precond" children. A direct solve runs inside "fem.precond"; a CG
// iteration's "sparse.cg" span follows it under "fem.solve", giving the
// assembly → preconditioner → CG chain in the trace.
func SolveAxiWith(ctx context.Context, sc *SolveContext, p *AxiProblem, opt sparse.Options) (*AxiSolution, error) {
	if sc == nil {
		sc = &SolveContext{borrowed: true}
		sol, err := SolveAxiWith(ctx, sc, p, opt)
		sc.Close() // not deferred: a panicking solve drops its context
		return sol, err
	}
	sys, x, st, err := solveAxi(ctx, sc, p, opt)
	if err != nil {
		return nil, err
	}
	return &AxiSolution{p: p, RCenters: sys.rc, ZCenters: sys.zc, Stats: st, T: sys.fieldFrom(x)}, nil
}

// solveAxi is SolveAxiWith's solve through a non-nil sc: it returns the
// assembled system and the solution x, grabbed from sc's pool, which the
// caller either keeps or hands back with sc.pool.Release.
func solveAxi(ctx context.Context, sc *SolveContext, p *AxiProblem, opt sparse.Options) (*axiSystem, []float64, sparse.Stats, error) {
	ctx, root := obs.StartSpan(ctx, "fem.solve")
	defer root.End()
	_, asp := obs.StartSpan(ctx, "fem.assemble")
	sys, err := assembleAxiWith(sc, p)
	asp.End()
	if err != nil {
		root.Set("error", err.Error())
		return nil, nil, sparse.Stats{}, err
	}
	root.Set("unknowns", len(sys.rhs))
	x, st, err := sc.solveSystem(ctx, sys.op, sys.rhs, opt)
	if err != nil {
		root.Set("error", err.Error())
		return nil, nil, st, solveErr("axisymmetric solve", len(sys.rhs), st, err)
	}
	return sys, x, st, nil
}

// MaxT returns the maximum cell temperature and its location.
func (s *AxiSolution) MaxT() (tmax, r, z float64) {
	tmax = math.Inf(-1)
	for j := range s.T {
		for i, t := range s.T[j] {
			if t > tmax {
				tmax, r, z = t, s.RCenters[i], s.ZCenters[j]
			}
		}
	}
	return tmax, r, z
}

// TotalSource integrates the volumetric source over the mesh (W).
func (s *AxiSolution) TotalSource() float64 {
	if s.p.Q == nil {
		return 0
	}
	var q float64
	for j := range s.T {
		dz := s.p.ZEdges[j+1] - s.p.ZEdges[j]
		for i := range s.T[j] {
			rw, re := s.p.REdges[i], s.p.REdges[i+1]
			q += float64(s.p.Q(s.RCenters[i], s.ZCenters[j]) * math.Pi * (float64(re*re) - float64(rw*rw)) * dz)
		}
	}
	return q
}

// BoundaryOutflow integrates the conductive heat flow leaving the domain
// through the Dirichlet boundaries (W). For a converged solution it matches
// TotalSource.
func (s *AxiSolution) BoundaryOutflow() float64 {
	p := s.p
	nr := len(p.REdges) - 1
	nz := len(p.ZEdges) - 1
	var out float64
	if p.Bottom.Kind == Dirichlet {
		for i := 0; i < nr; i++ {
			rw, re := p.REdges[i], p.REdges[i+1]
			a := math.Pi * (float64(re*re) - float64(rw*rw))
			kc := p.K(s.RCenters[i], s.ZCenters[0])
			g := a * kc / (s.ZCenters[0] - p.ZEdges[0])
			out += float64(g * (s.T[0][i] - p.Bottom.Temp))
		}
	}
	if p.Top.Kind == Dirichlet {
		for i := 0; i < nr; i++ {
			rw, re := p.REdges[i], p.REdges[i+1]
			a := math.Pi * (float64(re*re) - float64(rw*rw))
			kc := p.K(s.RCenters[i], s.ZCenters[nz-1])
			g := a * kc / (p.ZEdges[nz] - s.ZCenters[nz-1])
			out += float64(g * (s.T[nz-1][i] - p.Top.Temp))
		}
	}
	if p.Outer.Kind == Dirichlet {
		re := p.REdges[nr]
		for j := 0; j < nz; j++ {
			dz := p.ZEdges[j+1] - p.ZEdges[j]
			a := 2 * math.Pi * re * dz
			kc := p.K(s.RCenters[nr-1], s.ZCenters[j])
			g := a * kc / (re - s.RCenters[nr-1])
			out += float64(g * (s.T[j][nr-1] - p.Outer.Temp))
		}
	}
	return out
}

// FluxBalanceError returns |outflow - source| / max(source, 1e-300), the
// relative energy-conservation defect of the solution.
func (s *AxiSolution) FluxBalanceError() float64 {
	src := s.TotalSource()
	if src == 0 {
		return math.Abs(s.BoundaryOutflow())
	}
	return math.Abs(s.BoundaryOutflow()-src) / math.Abs(src)
}
