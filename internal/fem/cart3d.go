package fem

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/stack"
)

// CartProblem is a steady heat-conduction problem on a 3-D Cartesian
// structured mesh. It exists to validate the axisymmetric unit-cell
// reduction: the paper's block is a square with a cylindrical via, which the
// 2-D solver maps to an equal-area circle; this solver keeps the true square
// outline (with a staircase via) so the two can be compared.
type CartProblem struct {
	// XEdges, YEdges, ZEdges are the strictly increasing cell edges.
	XEdges, YEdges, ZEdges []float64
	// K and Q give the conductivity (W/m·K) and volumetric source (W/m³) at
	// a cell center; Q may be nil.
	K func(x, y, z float64) float64
	Q func(x, y, z float64) float64
	// KZ optionally gives a distinct vertical conductivity (anisotropic
	// medium, e.g. a homogenized via array that conducts better vertically
	// than laterally). Nil means the medium is isotropic (KZ = K).
	KZ func(x, y, z float64) float64
	// Bottom and Top are the boundary conditions at z extremes; the four
	// lateral faces are always adiabatic (the block's symmetry planes).
	Bottom, Top BC
}

// CartSolution is a solved 3-D temperature field.
type CartSolution struct {
	p *CartProblem
	// T holds cell temperatures indexed [iz][iy][ix].
	T [][][]float64
	// XCenters, YCenters, ZCenters are the cell centers.
	XCenters, YCenters, ZCenters []float64
	// Stats reports the linear solve.
	Stats sparse.Stats
}

// Validate checks the problem definition.
func (p *CartProblem) Validate() error {
	for _, e := range []struct {
		name  string
		edges []float64
	}{{"x", p.XEdges}, {"y", p.YEdges}, {"z", p.ZEdges}} {
		if err := mesh.Validate(e.edges); err != nil {
			return fmt.Errorf("fem: %s edges: %w", e.name, err)
		}
	}
	if p.K == nil {
		return fmt.Errorf("fem: conductivity function K is nil")
	}
	if p.Bottom.Kind != Dirichlet && p.Top.Kind != Dirichlet {
		return fmt.Errorf("fem: at least one of bottom/top must be Dirichlet")
	}
	return nil
}

// cartSystem is the assembled finite-volume system of a CartProblem.
type cartSystem struct {
	nx, ny, nz int
	xc, yc, zc []float64
	op         *sparse.Stencil
	rhs        []float64
	key        asmKey
}

// assembleCart discretizes the problem without a reuse context. The
// discretization itself lives in assembly.go (cartEmit), shared with the
// context-cached path.
func assembleCart(p *CartProblem) (*cartSystem, error) {
	return assembleCartWith(nil, p)
}

// SolveCart assembles and solves the finite-volume system.
func SolveCart(p *CartProblem, opt sparse.Options) (*CartSolution, error) {
	return SolveCartCtx(context.Background(), p, opt)
}

// SolveCartCtx is SolveCart honoring cancellation between conjugate-gradient
// iterations. Like SolveAxiCtx it emits fem.solve/fem.assemble/fem.precond
// spans when ctx carries an obs.Tracer.
func SolveCartCtx(ctx context.Context, p *CartProblem, opt sparse.Options) (*CartSolution, error) {
	return SolveCartWith(ctx, nil, p, opt)
}

// SolveCartWith is SolveCartCtx solving through a reuse context; see
// SolveAxiWith for the contract.
func SolveCartWith(ctx context.Context, sc *SolveContext, p *CartProblem, opt sparse.Options) (*CartSolution, error) {
	ctx, root := obs.StartSpan(ctx, "fem.solve")
	defer root.End()
	_, asp := obs.StartSpan(ctx, "fem.assemble")
	sys, err := assembleCartWith(sc, p)
	asp.End()
	if err != nil {
		root.Set("error", err.Error())
		return nil, err
	}
	o := opt
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	_, psp := obs.StartSpan(ctx, "fem.precond")
	o = resolveSolverWith(sc, sys.key, o, sys.op)
	if psp != nil {
		psp.Set("precond", o.Precond.String())
		psp.End()
	}
	if o.Pool == nil {
		o.Pool = sc.poolFor(o.Workers)
	}
	n := sys.nx * sys.ny * sys.nz
	root.Set("unknowns", n)
	if o.X0 == nil {
		o.X0 = sc.warmX0(sys.key, n)
	}
	x, st, err := sparse.SolveCGCtx(ctx, sys.op, sys.rhs, o)
	if err != nil {
		root.Set("error", err.Error())
		return nil, solveErr("3-D solve", n, st, err)
	}
	sc.storeWarm(sys.key, x)
	nx, ny, nz := sys.nx, sys.ny, sys.nz
	sol := &CartSolution{p: p, XCenters: sys.xc, YCenters: sys.yc, ZCenters: sys.zc, Stats: st}
	// x is laid out (l*ny+j)*nx + i, so the field rows can share one backing
	// array instead of allocating nz*ny separate slices.
	backing := make([]float64, nz*ny*nx)
	copy(backing, x)
	sol.T = make([][][]float64, nz)
	rows := make([][]float64, nz*ny)
	for l := 0; l < nz; l++ {
		sol.T[l] = rows[l*ny : (l+1)*ny : (l+1)*ny]
		for j := 0; j < ny; j++ {
			at := (l*ny + j) * nx
			sol.T[l][j] = backing[at : at+nx : at+nx]
		}
	}
	return sol, nil
}

// MaxT returns the maximum cell temperature.
func (s *CartSolution) MaxT() float64 {
	max := math.Inf(-1)
	for _, plane := range s.T {
		for _, row := range plane {
			for _, t := range row {
				if t > max {
					max = t
				}
			}
		}
	}
	return max
}

// TotalSource integrates the volumetric source (W).
func (s *CartSolution) TotalSource() float64 {
	if s.p.Q == nil {
		return 0
	}
	var q float64
	for l := range s.T {
		dz := s.p.ZEdges[l+1] - s.p.ZEdges[l]
		for j := range s.T[l] {
			dy := s.p.YEdges[j+1] - s.p.YEdges[j]
			for i := range s.T[l][j] {
				dx := s.p.XEdges[i+1] - s.p.XEdges[i]
				q += s.p.Q(s.XCenters[i], s.YCenters[j], s.ZCenters[l]) * dx * dy * dz
			}
		}
	}
	return q
}

// CartResolution controls BuildCartProblem's mesh density.
type CartResolution struct {
	// LateralVia is the cell count across the via diameter (per axis).
	LateralVia int
	// LateralLiner is the cell count across each liner band (per side).
	// The liner is thin; unless the lateral mesh resolves it, the staircase
	// via is effectively linerless and the 3-D block runs several percent
	// cooler than reality.
	LateralLiner int
	// LateralOuter is the cell count from the via to each block edge.
	LateralOuter int
	// AxialPerLayer, AxialMin and Bulk mirror Resolution.
	AxialPerLayer, AxialMin, Bulk int
}

// DefaultCartResolution returns a resolution adequate for cross-validation.
func DefaultCartResolution() CartResolution {
	return CartResolution{LateralVia: 10, LateralLiner: 2, LateralOuter: 10, AxialPerLayer: 4, AxialMin: 2, Bulk: 10}
}

// BuildCartProblem translates a single-via stack into the true 3-D square
// block problem (via centered, circular cross-section approximated on the
// Cartesian grid). Clusters are not supported here — the 3-D solver exists
// to validate the axisymmetric reduction of the single-via block.
func BuildCartProblem(s *stack.Stack, res CartResolution) (*CartProblem, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Via.EffectiveCount() != 1 {
		return nil, fmt.Errorf("fem: 3-D block builder supports a single via, stack has %d", s.Via.EffectiveCount())
	}
	if res.LateralVia < 2 || res.LateralLiner < 1 || res.LateralOuter < 1 || res.AxialPerLayer < 1 || res.AxialMin < 1 || res.Bulk < 1 {
		return nil, fmt.Errorf("fem: invalid 3-D resolution %+v", res)
	}
	side := math.Sqrt(s.Footprint)
	c := side / 2
	rv := s.Via.Radius
	rl := rv + s.Via.LinerThickness
	if c-rl <= 0 {
		return nil, fmt.Errorf("fem: via with liner does not fit the square block")
	}
	lat, err := mesh.Line(0, []mesh.Interval{
		{Hi: c - rl, Cells: res.LateralOuter, Ratio: 0.8},
		{Hi: c - rv, Cells: res.LateralLiner},
		{Hi: c + rv, Cells: res.LateralVia},
		{Hi: c + rl, Cells: res.LateralLiner},
		{Hi: side, Cells: res.LateralOuter, Ratio: 1.25},
	})
	if err != nil {
		return nil, err
	}

	spans, zTop, err := buildLayerSpans(s, s.Footprint)
	if err != nil {
		return nil, err
	}
	var intervals []mesh.Interval
	for i, sp := range spans {
		cells := res.AxialPerLayer
		ratio := 1.0
		if i == 0 {
			cells = res.Bulk
			ratio = 0.75
		}
		if sp.hi-sp.lo < 2e-6 && i != 0 {
			cells = res.AxialMin
		}
		intervals = append(intervals, mesh.Interval{Hi: sp.hi, Cells: cells, Ratio: ratio})
	}
	zEdges, err := mesh.Line(0, intervals)
	if err != nil {
		return nil, err
	}
	if !almostEqual(zTop, zEdges[len(zEdges)-1], 1e-9) {
		return nil, fmt.Errorf("fem: internal inconsistency: stack height %g vs mesh top %g", zTop, zEdges[len(zEdges)-1])
	}

	rVia := s.Via.Radius
	kf, kl := s.Via.Fill.K, s.Via.Liner.K
	// NaN on a span miss turns a mesh/layer bookkeeping bug into an assembly
	// error (assembly validates every sampled value) instead of silently
	// solving the wrong problem.
	kFn := func(x, y, z float64) float64 {
		sp := locateSpan(spans, z)
		if sp == nil {
			return math.NaN()
		}
		if sp.inVia {
			rr := math.Hypot(x-c, y-c)
			if rr < rVia {
				return kf
			}
			if rr < rl {
				return kl
			}
		}
		return sp.k
	}
	qFn := func(x, y, z float64) float64 {
		sp := locateSpan(spans, z)
		if sp == nil {
			return math.NaN()
		}
		return sp.q
	}
	return &CartProblem{
		XEdges: lat,
		YEdges: append([]float64(nil), lat...),
		ZEdges: zEdges,
		K:      kFn,
		Q:      qFn,
		Bottom: Fixed(0),
		Top:    Insulated(),
	}, nil
}
