package chip

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparse"
)

// The full-chip mesh keeps a ~6×6-tile chip under ~50k cells: cellsPerTile
// lateral cells per tile edge, and in z the shared layer rule (mesh.Layers)
// with these per-layer, thin-layer and bulk counts.
const (
	cellsPerTile = 4
	axialLayer   = 3
	axialThin    = 2
	axialBulk    = 8
)

// PowerMapSolution is a solved full-chip temperature field.
type PowerMapSolution struct {
	// MaxDT is the chip's maximum temperature rise (K).
	MaxDT float64
	// TileMaxDT[r][c] is the maximum rise within each tile's column.
	TileMaxDT [][]float64
	// Cells is the mesh size of the solve.
	Cells int
}

// SolvePowerMap runs a homogenized full-chip 3-D conduction solve of a
// floorplan with a per-tile TTSV allocation (typically a plan.Result's
// Counts). This is the paper's §IV-E move — "the proposed models are
// embedded in the analytic thermal analysis model of the system" — scaled to
// non-uniform power maps: each tile's via array becomes an anisotropic
// effective medium with *additional vertical* conductivity in the layers the
// vias traverse.
//
// A local effective medium cannot represent the via's series structure
// (lateral liner access + full-column fill) exactly — a naive parallel-mix
// smearing drops the liner bottleneck and rebuilds the very 1-D optimism the
// paper warns about. The added conductivity is therefore *calibrated per
// tile*: a scalar per tile scales the analytical via-path shape
// (eqs. (8)-(15)/(22)) until the homogenized column's own 1-D evaluation
// reproduces the tile's Model B temperature. In the uniform-array limit the
// full-chip solve then matches the unit-cell models by construction; on
// non-uniform maps the 3-D solve adds what the planner's adiabatic tiles
// ignore — tile-to-tile lateral coupling. This mirrors how the paper itself
// calibrates simple structures against richer references.
//
// The z mesh follows the reference builders' layer rule (mesh.Layers), so a
// layer thinner than 2 µm gets the thin cell count. The 3-D
// solve stops when ctx is cancelled and emits fem spans when ctx carries an
// obs.Tracer.
func SolvePowerMap(ctx context.Context, f *plan.Floorplan, tech plan.Technology, counts [][]int) (*PowerMapSolution, error) {
	if r := obs.Default(); r != nil {
		r.Counter("chip.powermap.solves").Inc()
		t0 := time.Now()
		defer func() {
			r.Histogram("chip.powermap.seconds", obs.ExpBuckets(1e-3, 4, 10)).Observe(time.Since(t0).Seconds())
		}()
	}
	if err := f.Validate(tech); err != nil {
		return nil, err
	}
	rows, cols := f.Rows(), f.Cols()
	if len(counts) != rows {
		return nil, fmt.Errorf("chip: counts grid has %d rows, floorplan %d", len(counts), rows)
	}
	tileArea := f.TileSide * f.TileSide
	perVia := math.Pi * tech.ViaRadius * tech.ViaRadius
	nPlanes := tech.NumPlanes

	// z layout, bottom-up: bulk Si1, [per plane: (bond), Si below device,
	// device layer, ILD]. viaPlane tags the plane whose analytical via
	// column covers a span (matching core.Resistances' column heights:
	// l_ext + ILD for plane 1, bond + Si + ILD for middle planes, bond + Si
	// for the top plane — its ILD carries no via conductance, eq. (14)).
	var spans []pmSpan
	z := 0.0
	add := func(t, k float64, viaPlane, qPlane int) {
		if t <= 0 {
			return
		}
		spans = append(spans, pmSpan{lo: z, hi: z + t, kBulk: k, viaPlane: viaPlane, qPlane: qPlane})
		z += t
	}
	tdev := tech.DeviceLayerThickness
	add(tech.TSi1-tech.Extension, tech.Si.K, -1, -1)
	add(tech.Extension-tdev, tech.Si.K, 0, -1)
	add(tdev, tech.Si.K, 0, 0)
	add(tech.TD, tech.ILD.K, 0, -1)
	for p := 1; p < nPlanes; p++ {
		add(tech.TB, tech.Bond.K, p, -1)
		add(tech.TSi-tdev, tech.Si.K, p, -1)
		add(tdev, tech.Si.K, p, p)
		topILDPlane := p
		if p == nPlanes-1 {
			topILDPlane = -1 // the top ILD is outside the analytical column
		}
		add(tech.TD, tech.ILD.K, topILDPlane, -1)
	}

	// Per tile and per plane: the extra vertical conductivity (W/m·K over
	// the tile area) in the spans the via column traverses. The analytical
	// series conductance 1/(R_metal + R_liner) per plane sets the shape; a
	// per-tile scalar alpha is then calibrated so the homogenized column's
	// 1-D evaluation reproduces the tile's Model B temperature.
	kAdd := make([][][]float64, rows) // [r][c][plane]
	modelB := core.NewModelB(100)
	for r := range counts {
		if len(counts[r]) != cols {
			return nil, fmt.Errorf("chip: counts grid ragged at row %d", r)
		}
		kAdd[r] = make([][]float64, cols)
		for c, n := range counts[r] {
			if n < 0 {
				return nil, fmt.Errorf("chip: tile (%d,%d) has negative via count", r, c)
			}
			kAdd[r][c] = make([]float64, nPlanes)
			if n == 0 {
				continue
			}
			if density := float64(n) * perVia / tileArea; density >= 1 {
				return nil, fmt.Errorf("chip: tile (%d,%d) via density %g >= 1", r, c, density)
			}
			ts, err := plan.TileStack(f.PlanePowers[r][c], tileArea, tech, n)
			if err != nil {
				return nil, fmt.Errorf("chip: tile (%d,%d): %w", r, c, err)
			}
			elems, _, err := core.Resistances(ts, core.UnitCoeffs())
			if err != nil {
				return nil, fmt.Errorf("chip: tile (%d,%d): %w", r, c, err)
			}
			shape := make([]float64, nPlanes)
			for p := 0; p < nPlanes; p++ {
				shape[p] = ts.ColumnHeight(p) / ((elems[p].Metal + elems[p].Liner) * tileArea)
			}
			target, err := modelB.Solve(ts)
			if err != nil {
				return nil, fmt.Errorf("chip: tile (%d,%d): %w", r, c, err)
			}
			alpha := calibrateColumn(spans, shape, f.PlanePowers[r][c], tileArea, target.MaxDT)
			for p := 0; p < nPlanes; p++ {
				kAdd[r][c][p] = alpha * shape[p]
			}
		}
	}

	tops := make([]float64, len(spans))
	for i, sp := range spans {
		tops[i] = sp.hi
	}
	zEdges, err := mesh.Layers(tops, axialLayer, axialThin, axialBulk, 1)
	if err != nil {
		return nil, err
	}
	var xIntervals, yIntervals []mesh.Interval
	for c := 0; c < cols; c++ {
		xIntervals = append(xIntervals, mesh.Interval{Hi: float64(c+1) * f.TileSide, Cells: cellsPerTile})
	}
	for r := 0; r < rows; r++ {
		yIntervals = append(yIntervals, mesh.Interval{Hi: float64(r+1) * f.TileSide, Cells: cellsPerTile})
	}
	xEdges, err := mesh.Line(0, xIntervals)
	if err != nil {
		return nil, err
	}
	yEdges, err := mesh.Line(0, yIntervals)
	if err != nil {
		return nil, err
	}

	tileOf := func(x, y float64) (int, int) {
		c := int(x / f.TileSide)
		r := int(y / f.TileSide)
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		return r, c
	}
	spanOf := func(zz float64) *pmSpan {
		for i := range spans {
			if zz < spans[i].hi {
				return &spans[i]
			}
		}
		return &spans[len(spans)-1]
	}
	// Lateral conduction sees the layer bulk (the sparse via array barely
	// changes it); vertical conduction gains each tile's analytical
	// via-path conductivity.
	kFn := func(x, y, zz float64) float64 {
		return spanOf(zz).kBulk
	}
	kzFn := func(x, y, zz float64) float64 {
		sp := spanOf(zz)
		if sp.viaPlane < 0 {
			return sp.kBulk
		}
		r, c := tileOf(x, y)
		return sp.kBulk + kAdd[r][c][sp.viaPlane]
	}
	devVol := tileArea * tdev
	qFn := func(x, y, zz float64) float64 {
		sp := spanOf(zz)
		if sp.qPlane < 0 {
			return 0
		}
		r, c := tileOf(x, y)
		return f.PlanePowers[r][c][sp.qPlane] / devVol
	}

	prob := &fem.CartProblem{
		XEdges: xEdges,
		YEdges: yEdges,
		ZEdges: zEdges,
		K:      kFn,
		KZ:     kzFn,
		Q:      qFn,
		Bottom: fem.Fixed(0),
		Top:    fem.Insulated(),
	}
	sol, err := fem.SolveCartWith(ctx, nil, prob, sparse.Options{Tol: 1e-8})
	if err != nil {
		return nil, err
	}

	out := &PowerMapSolution{
		TileMaxDT: make([][]float64, rows),
		Cells:     (len(xEdges) - 1) * (len(yEdges) - 1) * (len(zEdges) - 1),
	}
	for r := range out.TileMaxDT {
		out.TileMaxDT[r] = make([]float64, cols)
	}
	for l, zc := range sol.ZCenters {
		_ = zc
		for j, yc := range sol.YCenters {
			for i, xc := range sol.XCenters {
				t := sol.T[l][j][i]
				r, c := tileOf(xc, yc)
				if t > out.TileMaxDT[r][c] {
					out.TileMaxDT[r][c] = t
				}
				if t > out.MaxDT {
					out.MaxDT = t
				}
			}
		}
	}
	return out, nil
}

// pmSpan is one z-layer of the homogenized full-chip stack.
type pmSpan struct {
	lo, hi   float64
	kBulk    float64 // conductivity of the layer bulk
	viaPlane int     // plane whose via column covers this span, or -1
	qPlane   int     // plane whose device power heats this span, or -1
}

// calibrateColumn finds the scalar alpha such that the homogenized tile
// column — per-span vertical conductivity kBulk + alpha·shape[viaPlane],
// evaluated as a 1-D series stack with the plane powers injected at their
// device layers — reproduces the target temperature rise. The evaluation is
// monotone decreasing in alpha, so bisection converges; alpha = 0 is
// returned when even the bare stack meets the target (no via needed).
func calibrateColumn(spans []pmSpan, shape, powers []float64, area, target float64) float64 {
	// Crossing heat per span: everything injected at or above it.
	crossing := make([]float64, len(spans))
	devIndex := make([]int, len(powers))
	for i, sp := range spans {
		if sp.qPlane >= 0 {
			devIndex[sp.qPlane] = i
		}
	}
	for i := range spans {
		var sum float64
		for p, q := range powers {
			if devIndex[p] >= i {
				sum += q
			}
		}
		crossing[i] = sum
	}
	eval := func(alpha float64) float64 {
		var dt float64
		for i, sp := range spans {
			k := sp.kBulk
			if sp.viaPlane >= 0 {
				k += alpha * shape[sp.viaPlane]
			}
			dt += crossing[i] * (sp.hi - sp.lo) / (k * area)
		}
		return dt
	}
	if eval(0) <= target {
		return 0
	}
	hi := 1.0
	for eval(hi) > target && hi < 1e9 {
		hi *= 2
	}
	lo := 0.0
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (lo + hi)
		if eval(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
