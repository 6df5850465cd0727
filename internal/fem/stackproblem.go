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

// Resolution controls the mesh density of the stack-to-problem translation.
type Resolution struct {
	// RadialVia is the cell count across the via fill radius.
	RadialVia int
	// RadialLiner is the cell count across the liner annulus.
	RadialLiner int
	// RadialOuter is the cell count from the liner to the outer radius
	// (geometrically graded outward).
	RadialOuter int
	// AxialPerLayer is the base cell count per geometric layer; thin layers
	// (device layers, bonds) get at least AxialMin cells.
	AxialPerLayer int
	// AxialMin is the minimum cell count of any layer.
	AxialMin int
	// Bulk is the cell count of the thick first-plane substrate (graded
	// towards the via tip).
	Bulk int
	// Precond overrides the solver for solves at this resolution. The zero
	// value (sparse.PrecondDefault) applies the grid rule of solveSystem:
	// the banded LDLᵀ factor when unknowns × half-bandwidth² is under a
	// fixed budget, multigrid-preconditioned CG at or above it.
	// sparse.PrecondMG forces multigrid. Either way the hierarchy is built
	// per solve from the assembled grid (see mg.Build), and a grid too small
	// to coarsen falls back to the factor.
	Precond sparse.PrecondKind
	// RefineFactor records how many times finer than the base mesh this
	// resolution is (Refine maintains it). Graded mesh intervals raise
	// their per-cell ratio to the 1/RefineFactor power, keeping the total
	// first-to-last width ratio of each interval fixed under refinement:
	// refined meshes form a nested family of the same graded mesh instead
	// of compounding the per-cell ratio, which would make the width spread
	// grow exponentially with refinement (and the linear systems
	// correspondingly ill-conditioned). Values <= 1 leave ratios as
	// written.
	RefineFactor int
}

// DefaultResolution returns a resolution that keeps the block experiments
// under ~10k cells while resolving every interface.
func DefaultResolution() Resolution {
	return Resolution{RadialVia: 6, RadialLiner: 3, RadialOuter: 18, AxialPerLayer: 6, AxialMin: 2, Bulk: 14}
}

// Refine returns a resolution with every count scaled by f (≥ 1), used for
// grid-convergence tests. The returned resolution's RefineFactor scales by
// the same f, so graded intervals keep their total grading envelope (see
// RefineFactor) and successive refinements stay a nested mesh family.
func (r Resolution) Refine(f int) Resolution {
	rf := r.RefineFactor
	if rf < 1 {
		rf = 1
	}
	return Resolution{
		RadialVia:     r.RadialVia * f,
		RadialLiner:   r.RadialLiner * f,
		RadialOuter:   r.RadialOuter * f,
		AxialPerLayer: r.AxialPerLayer * f,
		AxialMin:      r.AxialMin * f,
		Bulk:          r.Bulk * f,
		Precond:       r.Precond,
		RefineFactor:  rf * f,
	}
}

// gradeRatio adapts a per-cell grading ratio to the resolution's refinement
// factor: ratio^(1/f) applied over f× the cells spans the same total ratio
// as the base mesh, so refinement subdivides the graded mesh instead of
// re-grading it more steeply.
func (r Resolution) gradeRatio(ratio float64) float64 {
	if r.RefineFactor > 1 && ratio != 1 {
		return math.Pow(ratio, 1/float64(r.RefineFactor))
	}
	return ratio
}

func (r Resolution) validate() error {
	if r.RadialVia < 1 || r.RadialLiner < 1 || r.RadialOuter < 1 || r.AxialPerLayer < 1 || r.AxialMin < 1 || r.Bulk < 1 {
		return fmt.Errorf("fem: resolution fields must all be >= 1: %+v", r)
	}
	return nil
}

// layerSpan records one material layer of the unit cell in z.
type layerSpan struct {
	lo, hi float64
	mat    materials.Material // bulk material outside the via
	q      float64            // volumetric source density (W/m³), applied across all r
	inVia  bool               // whether the via traverses this span
}

// thinSpanMax is the span thickness below which the axial mesh falls back to
// Resolution.AxialMin cells instead of AxialPerLayer: thin bond/liner-scale
// layers would otherwise force needle cells. The threshold decides the cell
// count of every span, so stacks on either side of it have different
// assembly shapes even at equal plane counts.
const thinSpanMax = 2e-6

// bulkGrade is the base per-cell width ratio of the thick first-plane
// substrate, finer towards its top (the via tip and the heat path).
const bulkGrade = 0.75

// axialEdges is the z mesh of both reference builders: perLayer cells per
// span, thin cells for a span thinner than thinSpanMax, and bulk cells in
// the first span graded by bulkRatio. zTop is the stack height the spans
// add up to.
func axialEdges(spans []layerSpan, zTop float64, perLayer, thin, bulk int, bulkRatio float64) ([]float64, error) {
	var intervals []mesh.Interval
	for i, sp := range spans {
		cells := perLayer
		ratio := 1.0
		if i == 0 {
			cells = bulk
			ratio = bulkRatio
		}
		if sp.hi-sp.lo < thinSpanMax && i != 0 {
			cells = thin
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
	return zEdges, nil
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
	if err := res.validate(); err != nil {
		return nil, err
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
	spans, zTop, err := buildLayerSpans(s, cellArea)
	if err != nil {
		return nil, err
	}

	// The bulk grading is relative to the base mesh, so refinement keeps
	// its envelope.
	zEdges, err := axialEdges(spans, zTop, res.AxialPerLayer, res.AxialMin, res.Bulk, res.gradeRatio(bulkGrade))
	if err != nil {
		return nil, err
	}

	rEdges, err := mesh.Line(0, []mesh.Interval{
		{Hi: rVia, Cells: res.RadialVia},
		{Hi: rLiner, Cells: res.RadialLiner},
		{Hi: rOuter, Cells: res.RadialOuter, Ratio: res.gradeRatio(1.2)},
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
func buildLayerSpans(s *stack.Stack, cellArea float64) ([]layerSpan, float64, error) {
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
		return nil, 0, fmt.Errorf("fem: stack produced no layers")
	}
	return spans, z, nil
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
// the stack, honoring cancellation, through the reuse context sc, or a
// context from the idle list when sc is nil (see SolveAxiWith). Across the
// stacks of a parameter sweep the mesh shape is usually identical, so the
// assembly and solver scratch carry over from one stack to the next.
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
