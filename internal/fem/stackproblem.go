package fem

import (
	"context"
	"fmt"
	"math"
	"sort"

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
	// Workers is the iterative solver's kernel worker count for solves at
	// this resolution; values <= 1 solve sequentially. With a fixed
	// preconditioner results are bit-identical for any value; the default
	// preconditioner switches from SSOR to Chebyshev when Workers > 1 (see
	// pickPrecond), which changes results only within the solver tolerance.
	Workers int
	// Precond overrides the preconditioner for solves at this resolution.
	// The zero value (sparse.PrecondDefault) auto-selects: multigrid above
	// ~4k unknowns, SSOR/Chebyshev below (see resolveSolver).
	// sparse.PrecondMG forces multigrid. Either way the hierarchy is built
	// per solve from the assembled grid — the geometric one, since this
	// grid has two axes (see mg.Build) — and a grid too small to coarsen
	// falls back to the single-level default.
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
		Workers:       r.Workers,
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
	k      float64 // bulk conductivity outside the via
	c      float64 // bulk volumetric heat capacity outside the via
	q      float64 // volumetric source density (W/m³), applied across all r
	inVia  bool    // whether the via traverses this span
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

	// z mesh: per span, cell count proportional to the base with a minimum;
	// the thick bulk substrate is graded towards the via tip.
	var intervals []mesh.Interval
	for i, sp := range spans {
		cells := res.AxialPerLayer
		ratio := 1.0
		if i == 0 {
			cells = res.Bulk
			// Finer towards the top (the via tip / heat path); the ratio is
			// relative to the base mesh so refinement keeps the envelope.
			ratio = res.gradeRatio(0.75)
		}
		if sp.hi-sp.lo < thinSpanMax && i != 0 {
			cells = res.AxialMin
		}
		intervals = append(intervals, mesh.Interval{Hi: sp.hi, Cells: cells, Ratio: ratio})
	}
	zEdges, err := mesh.Line(0, intervals)
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
		return sp.k
	}
	qFn := func(r, z float64) float64 {
		sp := locateSpan(spansCopy, z)
		if sp == nil {
			return math.NaN()
		}
		return sp.q
	}
	cf, cl := s.Via.Fill.C, s.Via.Liner.C
	capFn := func(r, z float64) float64 {
		sp := locateSpan(spansCopy, z)
		if sp == nil {
			return math.NaN()
		}
		if sp.inVia {
			if r < rVia {
				return cf
			}
			if r < rLiner {
				return cl
			}
		}
		return sp.c
	}
	if !almostEqual(zTop, zEdges[len(zEdges)-1], 1e-9) {
		return nil, fmt.Errorf("fem: internal inconsistency: stack height %g vs mesh top %g", zTop, zEdges[len(zEdges)-1])
	}
	return &AxiProblem{
		REdges: rEdges,
		ZEdges: zEdges,
		K:      kFn,
		Q:      qFn,
		Cap:    capFn,
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
	var spans []layerSpan
	z := 0.0
	add := func(t, k, c, q float64, inVia bool) {
		if t <= 0 {
			return
		}
		spans = append(spans, layerSpan{lo: z, hi: z + t, k: k, c: c, q: q, inVia: inVia})
		z += t
	}
	for i, p := range s.Planes {
		kSi, kD := p.Si.K, p.ILD.K
		cSi, cD := p.Si.C, p.ILD.C
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
				add(bulk-(tdev-ext), kSi, cSi, 0, false)
				add(tdev-ext, kSi, cSi, devQ, false)
				add(ext, kSi, cSi, devQ, ext > 0)
			} else {
				add(bulk, kSi, cSi, 0, false)
				add(ext-tdev, kSi, cSi, 0, ext-tdev > 0)
				add(tdev, kSi, cSi, devQ, true)
			}
			add(p.ILDThickness, kD, cD, ildQ, true)
			continue
		}
		kb, cb := p.Bond.K, p.Bond.C
		add(p.BondThickness, kb, cb, 0, true)
		add(p.SiThickness-tdev, kSi, cSi, 0, true)
		add(tdev, kSi, cSi, devQ, true)
		add(p.ILDThickness, kD, cD, ildQ, true)
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

// SolveStack builds and solves the axisymmetric reference problem for the
// stack and reports the paper's quantity of interest: the maximum
// temperature rise above the sink.
func SolveStack(s *stack.Stack, res Resolution) (*AxiSolution, error) {
	return SolveStackCtx(context.Background(), s, res)
}

// SolveStackCtx is SolveStack honoring cancellation and the resolution's
// solver worker count.
func SolveStackCtx(ctx context.Context, s *stack.Stack, res Resolution) (*AxiSolution, error) {
	return SolveStackWith(ctx, nil, s, res)
}

// SolveStackWith is SolveStackCtx solving through a reuse context (see
// SolveAxiWith): across the stacks of a parameter sweep the mesh topology is
// usually identical, so assembly patterns, multigrid hierarchies and solver
// scratch carry over from one stack to the next.
func SolveStackWith(ctx context.Context, sc *SolveContext, s *stack.Stack, res Resolution) (*AxiSolution, error) {
	ctx, sp := obs.StartSpan(ctx, "fem.stack")
	defer sp.End()
	p, err := BuildAxiProblem(s, res)
	if err != nil {
		sp.Set("error", err.Error())
		return nil, err
	}
	sp.Set("planes", len(s.Planes))
	o := sparseDefaults()
	o.Workers = res.Workers
	o.Precond = res.Precond
	return SolveAxiWith(ctx, sc, p, o)
}
