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
	// Cap returns the volumetric heat capacity (J/m³·K) at a cell center.
	// It is only consulted by SolveAxiTransient and may be nil otherwise.
	Cap func(r, z float64) float64
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
	nr, nz  int
	rc, zc  []float64
	op      *sparse.Stencil
	rhs     []float64
	volumes []float64 // cell volumes, row-major like the unknowns
	key     asmKey
}

// assembleAxi discretizes the problem without a reuse context; shared by the
// transient solver and tests. The discretization itself lives in assembly.go
// (axiEmit), shared with the context-cached path.
func assembleAxi(p *AxiProblem) (*axiSystem, error) {
	return assembleAxiWith(nil, p)
}

// solveDefaults fills in the solver settings this package uses: tight
// tolerance, preconditioner auto-selection (multigrid above the size
// threshold, served from sc's hierarchy cache when possible), and a MaxIter
// budget scaled to the preconditioner class.
func solveDefaults(sc *SolveContext, opt sparse.Options, sys *axiSystem) sparse.Options {
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	return resolveSolverWith(sc, sys.key, opt, sys.op)
}

// fieldFrom reshapes a flat unknown vector into the [iz][ir] grid. All rows
// share one backing array, so the reshape costs two allocations instead of
// one per z-plane.
func (sys *axiSystem) fieldFrom(x []float64) [][]float64 {
	t := make([][]float64, sys.nz)
	backing := make([]float64, sys.nz*sys.nr)
	copy(backing, x)
	for j := 0; j < sys.nz; j++ {
		t[j] = backing[j*sys.nr : (j+1)*sys.nr : (j+1)*sys.nr]
	}
	return t
}

// SolveAxi assembles and solves the finite-volume system. The zero Options
// value selects defaults appropriate for the meshes in this repository.
func SolveAxi(p *AxiProblem, opt sparse.Options) (*AxiSolution, error) {
	return SolveAxiCtx(context.Background(), p, opt)
}

// SolveAxiCtx is SolveAxi honoring cancellation: the conjugate-gradient
// iteration checks ctx between iterations, so a cancelled caller (e.g. an
// aborted sweep) does not run an in-flight solve to completion.
//
// When ctx carries an obs.Tracer the solve emits a "fem.solve" span with
// "fem.assemble" and "fem.precond" children; the CG iteration's "sparse.cg"
// span nests under "fem.solve", giving the assembly → preconditioner → CG
// chain in the trace.
func SolveAxiCtx(ctx context.Context, p *AxiProblem, opt sparse.Options) (*AxiSolution, error) {
	return SolveAxiWith(ctx, nil, p, opt)
}

// SolveAxiWith is SolveAxiCtx solving through a reuse context: assembly
// patterns, multigrid hierarchies and kernel pools cached in sc are
// recycled, and with sc.WarmStart the CG iteration starts from the previous
// solution of the same system shape. A nil sc (or sc.NoReuse) makes every
// solve fresh; the results are bit-identical either way (warm starts aside).
func SolveAxiWith(ctx context.Context, sc *SolveContext, p *AxiProblem, opt sparse.Options) (*AxiSolution, error) {
	ctx, root := obs.StartSpan(ctx, "fem.solve")
	defer root.End()
	_, asp := obs.StartSpan(ctx, "fem.assemble")
	sys, err := assembleAxiWith(sc, p)
	asp.End()
	if err != nil {
		root.Set("error", err.Error())
		return nil, err
	}
	root.Set("unknowns", len(sys.rhs))
	_, psp := obs.StartSpan(ctx, "fem.precond")
	o := solveDefaults(sc, opt, sys)
	if psp != nil {
		psp.Set("precond", o.Precond.String())
		psp.End()
	}
	if o.Pool == nil {
		o.Pool = sc.poolFor(o.Workers)
	}
	if o.X0 == nil {
		o.X0 = sc.warmX0(sys.key, len(sys.rhs))
	}
	x, st, err := sparse.SolveCGCtx(ctx, sys.op, sys.rhs, o)
	if err != nil {
		root.Set("error", err.Error())
		return nil, solveErr("axisymmetric solve", len(sys.rhs), st, err)
	}
	sc.storeWarm(sys.key, x)
	return &AxiSolution{p: p, RCenters: sys.rc, ZCenters: sys.zc, Stats: st, T: sys.fieldFrom(x)}, nil
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

// At returns the temperature of the cell containing (r, z).
func (s *AxiSolution) At(r, z float64) (float64, error) {
	i := mesh.Locate(s.p.REdges, r)
	j := mesh.Locate(s.p.ZEdges, z)
	if i < 0 || j < 0 {
		return 0, fmt.Errorf("fem: point (r=%g, z=%g) outside mesh", r, z)
	}
	return s.T[j][i], nil
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
			q += s.p.Q(s.RCenters[i], s.ZCenters[j]) * math.Pi * (re*re - rw*rw) * dz
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
			a := math.Pi * (re*re - rw*rw)
			kc := p.K(s.RCenters[i], s.ZCenters[0])
			g := a * kc / (s.ZCenters[0] - p.ZEdges[0])
			out += g * (s.T[0][i] - p.Bottom.Temp)
		}
	}
	if p.Top.Kind == Dirichlet {
		for i := 0; i < nr; i++ {
			rw, re := p.REdges[i], p.REdges[i+1]
			a := math.Pi * (re*re - rw*rw)
			kc := p.K(s.RCenters[i], s.ZCenters[nz-1])
			g := a * kc / (p.ZEdges[nz] - s.ZCenters[nz-1])
			out += g * (s.T[nz-1][i] - p.Top.Temp)
		}
	}
	if p.Outer.Kind == Dirichlet {
		re := p.REdges[nr]
		for j := 0; j < nz; j++ {
			dz := p.ZEdges[j+1] - p.ZEdges[j]
			a := 2 * math.Pi * re * dz
			kc := p.K(s.RCenters[nr-1], s.ZCenters[j])
			g := a * kc / (re - s.RCenters[nr-1])
			out += g * (s.T[j][nr-1] - p.Outer.Temp)
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
