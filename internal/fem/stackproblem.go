package fem

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/materials"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/stack"
)

// Resolution selects the reference mesh and solver. The mesh is one nested
// family indexed by a refinement level: the zero value (and
// DefaultResolution) is the base mesh, and Refine(f) is f times finer along
// both axes, with graded intervals subdivided rather than regraded (see
// mesh.Regrade).
type Resolution struct {
	// refine is the refinement factor less one, so the zero value is the
	// base mesh and equal meshes compare (and key caches) equal.
	refine int
	// Precond overrides the solver for solves at this resolution. The zero
	// value (sparse.PrecondDefault) applies the grid rule of solveSystem:
	// the banded LDLᵀ factor when unknowns × half-bandwidth² is under a
	// fixed budget, multigrid-preconditioned CG at or above it.
	// sparse.PrecondMG forces multigrid. Either way the hierarchy is built
	// per solve from the assembled grid (see mg.Build); every mesh of the
	// family coarsens at least once.
	Precond sparse.PrecondKind
}

// Cell counts of the base mesh, which keeps the block experiments under
// ~10k cells while resolving every interface. Refine scales each by its
// factor.
const (
	radialVia   = 6  // across the via fill radius
	radialLiner = 3  // across the liner annulus
	radialOuter = 18 // from the liner to the unit-cell radius, graded outward
	axialLayer  = 6  // per layer of the stack (mesh.Layers)
	axialThin   = 2  // per layer thinner than 2 µm (mesh.Layers)
	axialBulk   = 14 // in the thick bottom substrate, graded towards its top
)

// DefaultResolution returns the base mesh under the default solver rule: the
// zero Resolution.
func DefaultResolution() Resolution { return Resolution{} }

// Refine returns r with a mesh f (≥ 1) times finer than the base mesh along
// each axis, keeping Precond. It sets the level rather than compounding it:
// Refine(2).Refine(4) is Refine(4).
func (r Resolution) Refine(f int) Resolution {
	r.refine = f - 1
	return r
}

// factor is the refinement factor of r.
func (r Resolution) factor() int { return r.refine + 1 }

// layerSpan records one material layer of the unit cell in z.
type layerSpan struct {
	lo, hi float64
	mat    materials.Material // bulk material outside the via
	q      float64            // volumetric source density (W/m³), applied across all r
	inVia  bool               // whether the via traverses this span
}

// spanTops lists the tops of spans, bottom-up, for mesh.Layers.
func spanTops(spans []layerSpan) []float64 {
	tops := make([]float64, len(spans))
	for i, sp := range spans {
		tops[i] = sp.hi
	}
	return tops
}

// BuildAxiProblem translates a stack into the axisymmetric unit-cell problem
// the reference solver consumes. For a via cluster (Count > 1) the unit cell
// is the symmetry cell of one via: footprint A0/n, via radius r_n, powers
// q_i/n — exact for a uniformly distributed array. The square cell is mapped
// to the equal-area circle. The bottom is the heat sink (ΔT = 0 reference);
// all other boundaries are adiabatic, matching the paper's setup.
func BuildAxiProblem(s *stack.Stack, res Resolution) (*AxiProblem, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f := res.factor()
	if f < 1 {
		return nil, fmt.Errorf("fem: refinement factor %d must be >= 1", f)
	}
	n := float64(s.Via.EffectiveCount())
	rVia := s.Via.SplitRadius()
	rLiner := rVia + s.Via.LinerThickness
	cellArea := s.Footprint / n
	rOuter := math.Sqrt(cellArea / math.Pi)
	if rLiner >= rOuter {
		return nil, fmt.Errorf("fem: via+liner radius %g exceeds unit cell radius %g", rLiner, rOuter)
	}

	// Assemble the layer spans bottom-up and the z breakpoints.
	spans, err := buildLayerSpans(s, cellArea)
	if err != nil {
		return nil, err
	}
	zEdges, err := mesh.Layers(spanTops(spans), f*axialLayer, f*axialThin, f*axialBulk, f)
	if err != nil {
		return nil, err
	}
	rEdges, err := mesh.Line(0, []mesh.Interval{
		{Hi: rVia, Cells: f * radialVia},
		{Hi: rLiner, Cells: f * radialLiner},
		{Hi: rOuter, Cells: f * radialOuter, Ratio: mesh.Regrade(1.2, f)},
	})
	if err != nil {
		return nil, err
	}

	kf := s.Via.Fill.K
	kl := s.Via.Liner.K
	spansCopy := spans
	// The closures return NaN when z falls outside the layer table instead of
	// a silently-plausible fallback: assembly validates every sampled value,
	// so a span miss (a mesh/layer bookkeeping bug) surfaces as an assembly
	// error rather than a wrong answer.
	kFn := func(r, z float64) float64 {
		sp := locateSpan(spansCopy, z)
		if sp == nil {
			return math.NaN()
		}
		if sp.inVia {
			if r < rVia {
				return kf
			}
			if r < rLiner {
				return kl
			}
		}
		return sp.mat.K
	}
	qFn := func(r, z float64) float64 {
		sp := locateSpan(spansCopy, z)
		if sp == nil {
			return math.NaN()
		}
		return sp.q
	}
	return &AxiProblem{
		REdges: rEdges,
		ZEdges: zEdges,
		K:      kFn,
		Q:      qFn,
		Bottom: Fixed(0),
		Top:    Insulated(),
		Outer:  Insulated(),
	}, nil
}

// buildLayerSpans lists the z-spans of the unit cell bottom-up with their
// material and source density. cellArea scales the per-plane powers into
// volumetric densities (powers are divided by the via count with the area).
func buildLayerSpans(s *stack.Stack, cellArea float64) ([]layerSpan, error) {
	frac := cellArea / s.Footprint // power share of the unit cell
	// Every plane adds at most four spans.
	spans := make([]layerSpan, 0, 4*len(s.Planes))
	z := 0.0
	add := func(t float64, mat materials.Material, q float64, inVia bool) {
		if t <= 0 {
			return
		}
		spans = append(spans, layerSpan{lo: z, hi: z + t, mat: mat, q: q, inVia: inVia})
		z += t
	}
	for i, p := range s.Planes {
		tdev := p.DeviceLayerThickness
		if tdev <= 0 {
			// Keep the device power by folding it into the ILD source.
			tdev = 0
		}
		devQ := 0.0
		if tdev > 0 {
			devQ = p.DevicePower * frac / (cellArea * tdev)
		}
		ildQ := 0.0
		if p.ILDThickness > 0 {
			ildQ = p.ILDPower * frac / (cellArea * p.ILDThickness)
			if tdev == 0 {
				ildQ += p.DevicePower * frac / (cellArea * p.ILDThickness)
			}
		}
		if i == 0 {
			// Thick substrate: bulk below the via tip, then the extension
			// region. The device layer is the top tdev of the substrate and
			// may coincide with the extension region.
			bulk := p.SiThickness - s.Via.Extension
			ext := s.Via.Extension
			if tdev >= ext {
				// Device layer spans the extension and dips into the bulk.
				add(bulk-(tdev-ext), p.Si, 0, false)
				add(tdev-ext, p.Si, devQ, false)
				add(ext, p.Si, devQ, ext > 0)
			} else {
				add(bulk, p.Si, 0, false)
				add(ext-tdev, p.Si, 0, ext-tdev > 0)
				add(tdev, p.Si, devQ, true)
			}
			add(p.ILDThickness, p.ILD, ildQ, true)
			continue
		}
		add(p.BondThickness, p.Bond, 0, true)
		add(p.SiThickness-tdev, p.Si, 0, true)
		add(tdev, p.Si, devQ, true)
		add(p.ILDThickness, p.ILD, ildQ, true)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("fem: stack produced no layers")
	}
	return spans, nil
}

func locateSpan(spans []layerSpan, z float64) *layerSpan {
	i := sort.Search(len(spans), func(k int) bool { return spans[k].hi > z })
	if i >= len(spans) {
		if z == spans[len(spans)-1].hi {
			return &spans[len(spans)-1]
		}
		return nil
	}
	if z < spans[i].lo {
		return nil
	}
	return &spans[i]
}

// SolveStackWith builds and solves the axisymmetric reference problem for
// the stack, honoring cancellation, through the reuse context sc, or one of
// the package's own when sc is nil (see SolveAxiWith). Across the stacks of
// a parameter sweep the mesh shape is usually identical, so the assembly,
// factor storage and solver scratch carry over from one stack to the next.
func SolveStackWith(ctx context.Context, sc *SolveContext, s *stack.Stack, res Resolution) (*AxiSolution, error) {
	ctx, sp := obs.StartSpan(ctx, "fem.stack")
	defer sp.End()
	p, err := BuildAxiProblem(s, res)
	if err != nil {
		sp.Set("error", err.Error())
		return nil, err
	}
	sp.Set("planes", len(s.Planes))
	return SolveAxiWith(ctx, sc, p, sparse.Options{Precond: res.Precond})
}

// SolveStackMaxWith is SolveStackWith for a caller that wants only the
// maximum cell temperature, MaxT's first return, and the solve's Stats:
// both bit-identical to SolveStackWith's, through the same spans. It keeps
// no field, handing the solution vector back to the context's pool, so a
// solve through a warm context allocates only its own bookkeeping.
func SolveStackMaxWith(ctx context.Context, sc *SolveContext, s *stack.Stack, res Resolution) (float64, sparse.Stats, error) {
	max, _, st, err := solveStackMax(ctx, sc, s, res)
	return max, st, err
}

// solveStackMax is SolveStackMaxWith reporting the unknown count too.
func solveStackMax(ctx context.Context, sc *SolveContext, s *stack.Stack, res Resolution) (max float64, n int, st sparse.Stats, err error) {
	ctx, sp := obs.StartSpan(ctx, "fem.stack")
	defer sp.End()
	p, err := BuildAxiProblem(s, res)
	if err != nil {
		sp.Set("error", err.Error())
		return 0, 0, sparse.Stats{}, err
	}
	sp.Set("planes", len(s.Planes))
	own := sc == nil
	if own {
		sc = &SolveContext{borrowed: true}
	}
	_, x, st, err := solveAxi(ctx, sc, p, sparse.Options{Precond: res.Precond})
	if err == nil {
		// MaxT's scan: x runs through the field's rows in order.
		max, n = math.Inf(-1), len(x)
		for _, t := range x {
			if t > max {
				max = t
			}
		}
		sc.pool.Release(x)
	}
	if own {
		sc.Close() // not deferred: a panicking solve drops its context
	}
	return max, n, st, err
}
