// Package plan implements thermal-budget-driven TTSV insertion, the
// application the paper's conclusion motivates: "adapting a 1-D model in a
// TTSV insertion/planning methodology can result in excessive usage of
// TTSVs (a critical resource in 3-D ICs)".
//
// The chip is divided into square tiles with individual power budgets. Each
// tile is treated as an adiabatic unit cell — accurate when neighboring
// tiles run comparable densities — and the planner assigns the smallest via
// count per tile that keeps the tile's maximum temperature rise under a
// budget, using any core.Model as the thermal engine. Planning the same
// floorplan with the 1-D model quantifies exactly how many vias its bias
// wastes (or misses).
package plan

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/materials"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/sweep"
)

// Technology collects the per-via and per-plane fabrication parameters
// shared by all tiles.
type Technology struct {
	// ViaRadius is the radius of each individual TTSV (m).
	ViaRadius float64
	// LinerThickness is each via's liner thickness (m).
	LinerThickness float64
	// Extension is l_ext into the first plane's substrate (m).
	Extension float64
	// TSi1, TSi, TD, TB are the layer thicknesses (first-plane substrate,
	// upper substrates, ILD, bond), in meters.
	TSi1, TSi, TD, TB float64
	// NumPlanes is the plane count (≥ 2).
	NumPlanes int
	// MaxDensity caps the via metal area fraction per tile (e.g. 0.1).
	MaxDensity float64
	// DeviceLayerThickness spreads tile power for the reference solver.
	DeviceLayerThickness float64
	// Materials; zero values default to the paper's set.
	Si, ILD, Bond, Fill, Liner materials.Material
}

// DefaultTechnology returns a technology matching the paper's case-study
// stack: 300 µm substrates, 20 µm ILD, 10 µm bond, 30 µm vias with 1 µm
// liners, up to 10% metal density.
func DefaultTechnology() Technology {
	return Technology{
		ViaRadius:            30e-6,
		LinerThickness:       1e-6,
		Extension:            1e-6,
		TSi1:                 300e-6,
		TSi:                  300e-6,
		TD:                   20e-6,
		TB:                   10e-6,
		NumPlanes:            3,
		MaxDensity:           0.10,
		DeviceLayerThickness: 1e-6,
		Si:                   materials.Silicon,
		ILD:                  materials.SiO2,
		Bond:                 materials.Polyimide,
		Fill:                 materials.Copper,
		Liner:                materials.SiO2,
	}
}

// Floorplan is the thermal view of a chip: a grid of square tiles with the
// total power each tile's stack of planes dissipates.
type Floorplan struct {
	// TileSide is the edge length of each square tile (m).
	TileSide float64
	// PlanePowers[r][c][p] is the power (W) of plane p in tile (r, c);
	// plane 0 is adjacent to the heat sink.
	PlanePowers [][][]float64
}

// Rows and Cols report the grid dimensions.
func (f *Floorplan) Rows() int { return len(f.PlanePowers) }

// Cols reports the number of tile columns.
func (f *Floorplan) Cols() int {
	if len(f.PlanePowers) == 0 {
		return 0
	}
	return len(f.PlanePowers[0])
}

// Validate checks the floorplan's consistency against a technology.
func (f *Floorplan) Validate(tech Technology) error {
	if f.TileSide <= 0 {
		return fmt.Errorf("plan: tile side %g must be positive", f.TileSide)
	}
	if f.Rows() == 0 || f.Cols() == 0 {
		return fmt.Errorf("plan: empty floorplan")
	}
	for r, row := range f.PlanePowers {
		if len(row) != f.Cols() {
			return fmt.Errorf("plan: ragged floorplan at row %d", r)
		}
		for c, tile := range row {
			if len(tile) != tech.NumPlanes {
				return fmt.Errorf("plan: tile (%d,%d) has %d plane powers, technology has %d planes",
					r, c, len(tile), tech.NumPlanes)
			}
			for p, q := range tile {
				if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
					return fmt.Errorf("plan: tile (%d,%d) plane %d power %g invalid", r, c, p, q)
				}
			}
		}
	}
	return nil
}

// Result is a completed insertion plan.
type Result struct {
	// Counts[r][c] is the number of TTSVs assigned to each tile.
	Counts [][]int
	// TileDT[r][c] is the planned tile's predicted maximum temperature rise.
	TileDT [][]float64
	// TotalVias sums the counts.
	TotalVias int
	// MaxDT is the hottest planned tile's rise.
	MaxDT float64
	// ViaArea is the total via metal area (m²).
	ViaArea float64
}

// Options configures how a plan is computed; the plan itself is identical
// for any setting.
type Options struct {
	// Ctx optionally bounds the run: a cancelled context stops dispatching
	// tiles and PlanWith returns the context error instead of a partial
	// plan. Nil means context.Background() (run to completion).
	Ctx context.Context
	// Workers is the number of tiles planned concurrently; values < 1
	// select runtime.GOMAXPROCS(0).
	Workers int
}

// Plan assigns the minimum via count per tile keeping every tile's maximum
// temperature rise at or below budget (K) according to the given model.
// Tiles whose unaided rise already meets the budget get zero vias. It fails
// when some tile cannot meet the budget even at the technology's maximum
// via density.
func Plan(f *Floorplan, tech Technology, budget float64, m core.Model) (*Result, error) {
	return PlanWith(f, tech, budget, m, Options{})
}

// tileSecondsBounds are the bucket bounds of plan.tile.seconds.
var tileSecondsBounds = obs.ExpBuckets(1e-6, 4, 13)

// PlanWith is Plan with explicit cancellation and concurrency control. Tiles
// are planned in parallel on sweep's pool of opt.Workers workers; the
// result (including which error is reported on failure) is byte-identical
// to a sequential row-major pass. Every plan memoizes its solves in its own
// sweep.Cache: floorplans routinely repeat tile power vectors, and the
// bisection in every such tile then re-walks identical via counts, which
// the cache makes free. When opt.Ctx carries a tracer
// (obs.ContextWithTracer), the run records one "plan.run" span with a
// "plan.tile" child per tile. The model must be safe for concurrent use;
// all models in this repository are stateless values and qualify.
func PlanWith(f *Floorplan, tech Technology, budget float64, m core.Model, opt Options) (*Result, error) {
	if err := f.Validate(tech); err != nil {
		return nil, err
	}
	if budget <= 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("plan: budget %g K must be positive", budget)
	}
	tileArea := f.TileSide * f.TileSide
	perVia := math.Pi * tech.ViaRadius * tech.ViaRadius
	maxCount := int(tech.MaxDensity * tileArea / perVia)
	if maxCount < 1 {
		return nil, fmt.Errorf("plan: tile side %g too small for even one via at density cap %g",
			f.TileSide, tech.MaxDensity)
	}
	solver := sweep.Cached(m, sweep.NewCache())

	rows, cols := f.Rows(), f.Cols()
	workers := sweep.Workers(opt.Workers, rows*cols)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, run := obs.StartSpan(ctx, "plan.run")
	if run != nil {
		run.Set("tiles", rows*cols)
		run.Set("workers", workers)
		defer run.End()
	}
	tileCounter := obs.Default().Counter("plan.tiles")
	tileWall := obs.Default().Histogram("plan.tile.seconds", tileSecondsBounds)

	counts := make([]int, rows*cols)
	dts := make([]float64, rows*cols)
	errs := make([]error, rows*cols)
	sweep.Each(ctx, workers, 0, rows*cols, func(i int) {
		if ctx.Err() != nil {
			return // the cancelled run discards the plan
		}
		r, c := i/cols, i%cols
		tctx, sp := obs.StartSpan(ctx, "plan.tile")
		t0 := time.Now()
		count, dt, err := planTile(tctx, f.PlanePowers[r][c], tileArea, tech, budget, solver, maxCount)
		tileCounter.Inc()
		tileWall.Observe(time.Since(t0).Seconds())
		if sp != nil {
			sp.Set("tile", fmt.Sprintf("%d,%d", r, c))
			sp.Set("vias", count)
			if err != nil {
				sp.Set("error", err.Error())
			}
			sp.End()
		}
		if err != nil {
			errs[i] = fmt.Errorf("plan: tile (%d,%d): %w", r, c, err)
			return
		}
		counts[i], dts[i] = count, dt
	})

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	// Report the same error a sequential row-major pass would have hit
	// first, keeping failures deterministic under any worker count.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &Result{
		Counts: make([][]int, rows),
		TileDT: make([][]float64, rows),
	}
	for r := 0; r < rows; r++ {
		out.Counts[r] = counts[r*cols : (r+1)*cols : (r+1)*cols]
		out.TileDT[r] = dts[r*cols : (r+1)*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			out.TotalVias += counts[r*cols+c]
			if dt := dts[r*cols+c]; dt > out.MaxDT {
				out.MaxDT = dt
			}
		}
	}
	out.ViaArea = float64(out.TotalVias) * perVia
	return out, nil
}

// planTile finds the smallest count meeting the budget by bisection over
// [0, maxCount]; ΔT is monotone non-increasing in the via count. It stops
// with ctx.Err() as soon as ctx ends, mid-solve or between solves.
func planTile(ctx context.Context, powers []float64, tileArea float64, tech Technology, budget float64, m core.Model, maxCount int) (int, float64, error) {
	dt0, err := noViaDT(powers, tileArea, tech)
	if err != nil {
		return 0, 0, err
	}
	if dt0 <= budget {
		return 0, dt0, nil
	}
	dtAt := func(n int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		s, err := TileStack(powers, tileArea, tech, n)
		if err != nil {
			return 0, err
		}
		res, err := core.Solve(ctx, m, s)
		if err != nil {
			return 0, err
		}
		return res.MaxDT, nil
	}
	dtMax, err := dtAt(maxCount)
	if err != nil {
		return 0, 0, err
	}
	if dtMax > budget {
		return 0, dtMax, fmt.Errorf("budget %g K unreachable: ΔT %g K even at %d vias (density cap %g)",
			budget, dtMax, maxCount, tech.MaxDensity)
	}
	lo, hi := 1, maxCount // hi always meets the budget
	dtHi := dtMax
	for lo < hi {
		mid := (lo + hi) / 2
		dt, err := dtAt(mid)
		if err != nil {
			return 0, 0, err
		}
		if dt <= budget {
			hi = mid
			dtHi = dt
		} else {
			lo = mid + 1
		}
	}
	if lo == maxCount {
		return maxCount, dtMax, nil
	}
	return hi, dtHi, nil
}

// TileStack builds the unit stack of one tile carrying n vias of the
// technology's radius (expressed through the equal-metal-area cluster
// representation: equivalent radius r·√n with Count = n). It is exported so
// verification flows (e.g. the full-chip power-map solver) can rebuild the
// exact stacks the planner evaluated.
func TileStack(powers []float64, tileArea float64, tech Technology, n int) (*stack.Stack, error) {
	planes := make([]stack.Plane, tech.NumPlanes)
	for i := range planes {
		tsi := tech.TSi
		tb := tech.TB
		if i == 0 {
			tsi = tech.TSi1
			tb = 0
		}
		planes[i] = stack.Plane{
			SiThickness:          tsi,
			ILDThickness:         tech.TD,
			BondThickness:        tb,
			Si:                   tech.Si,
			ILD:                  tech.ILD,
			Bond:                 tech.Bond,
			DevicePower:          powers[i],
			DeviceLayerThickness: tech.DeviceLayerThickness,
		}
	}
	s := &stack.Stack{
		Footprint: tileArea,
		Planes:    planes,
		Via: stack.TTSV{
			Radius:         tech.ViaRadius * math.Sqrt(float64(n)),
			LinerThickness: tech.LinerThickness,
			Extension:      tech.Extension,
			Fill:           tech.Fill,
			Liner:          tech.Liner,
			Count:          n,
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// noViaDT evaluates the tile without any via: a plain series slab stack.
func noViaDT(powers []float64, tileArea float64, tech Technology) (float64, error) {
	if tileArea <= 0 {
		return 0, fmt.Errorf("plan: non-positive tile area")
	}
	// Cumulative heat crossing each plane.
	crossing := make([]float64, tech.NumPlanes)
	var sum float64
	for i := tech.NumPlanes - 1; i >= 0; i-- {
		sum += powers[i]
		crossing[i] = sum
	}
	dt := sum * (tech.TSi1 - tech.Extension) / (tech.Si.K * tileArea)
	for i := 0; i < tech.NumPlanes; i++ {
		var vertical float64
		if i == 0 {
			vertical = tech.TD/tech.ILD.K + tech.Extension/tech.Si.K
		} else {
			vertical = tech.TD/tech.ILD.K + tech.TSi/tech.Si.K + tech.TB/tech.Bond.K
		}
		dt += crossing[i] * vertical / tileArea
	}
	return dt, nil
}
