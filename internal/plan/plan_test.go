package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/stack"
)

// uniformFloorplan builds rows×cols tiles, each dissipating watts split as
// 5/6 in plane 1 and 1/12 in each upper plane (processor-heavy like the
// case study).
func uniformFloorplan(rows, cols int, tileSide, watts float64) *Floorplan {
	f := &Floorplan{TileSide: tileSide}
	for r := 0; r < rows; r++ {
		var row [][]float64
		for c := 0; c < cols; c++ {
			row = append(row, []float64{watts * 5 / 6, watts / 12, watts / 12})
		}
		f.PlanePowers = append(f.PlanePowers, row)
	}
	return f
}

func modelA() core.Model { return core.ModelA{Coeffs: core.PaperSystemCoeffs()} }

func TestPlanUniformChip(t *testing.T) {
	// ~the case-study chip: 13×13 tiles of 0.75 mm, 84 W total.
	f := uniformFloorplan(13, 13, 0.75e-3, 84.0/169)
	res, err := Plan(f, DefaultTechnology(), 13.0, modelA())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDT > 13.0 {
		t.Errorf("planned max ΔT %g exceeds budget", res.MaxDT)
	}
	// Uniform power must give uniform counts.
	first := res.Counts[0][0]
	for r := range res.Counts {
		for c := range res.Counts[r] {
			if res.Counts[r][c] != first {
				t.Fatalf("non-uniform plan for uniform power: %d vs %d at (%d,%d)",
					res.Counts[r][c], first, r, c)
			}
		}
	}
	if first < 1 {
		t.Errorf("uniform hot chip planned %d vias per tile", first)
	}
	if res.TotalVias != first*169 {
		t.Errorf("TotalVias = %d", res.TotalVias)
	}
	if res.ViaArea <= 0 {
		t.Error("via area missing")
	}
}

func TestPlanMinimality(t *testing.T) {
	// One via fewer than planned must violate the budget (the plan is the
	// minimal feasible count).
	f := uniformFloorplan(1, 1, 0.75e-3, 84.0/169)
	tech := DefaultTechnology()
	const budget = 13.0
	res, err := Plan(f, tech, budget, modelA())
	if err != nil {
		t.Fatal(err)
	}
	n := res.Counts[0][0]
	if n < 2 {
		t.Skipf("plan used %d vias; minimality check needs ≥ 2", n)
	}
	s, err := TileStack(f.PlanePowers[0][0], f.TileSide*f.TileSide, tech, n-1)
	if err != nil {
		t.Fatal(err)
	}
	under, err := modelA().Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if under.MaxDT <= budget {
		t.Errorf("n-1 = %d vias still meet the budget (ΔT %g)", n-1, under.MaxDT)
	}
}

func TestPlanHotTileGetsMoreVias(t *testing.T) {
	f := uniformFloorplan(2, 2, 0.75e-3, 0.3)
	// Make tile (0,0) three times hotter.
	for p := range f.PlanePowers[0][0] {
		f.PlanePowers[0][0][p] *= 3
	}
	res, err := Plan(f, DefaultTechnology(), 10.0, modelA())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0][0] <= res.Counts[1][1] {
		t.Errorf("hot tile got %d vias, cool tile %d", res.Counts[0][0], res.Counts[1][1])
	}
}

func TestPlanColdTileGetsNoVias(t *testing.T) {
	f := uniformFloorplan(1, 2, 0.75e-3, 0.4)
	for p := range f.PlanePowers[0][1] {
		f.PlanePowers[0][1][p] = 0.0001 // nearly idle tile
	}
	res, err := Plan(f, DefaultTechnology(), 12.0, modelA())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0][1] != 0 {
		t.Errorf("idle tile got %d vias", res.Counts[0][1])
	}
	if res.Counts[0][0] < 1 {
		t.Errorf("hot tile got no vias")
	}
}

func TestPlanImpossibleBudget(t *testing.T) {
	f := uniformFloorplan(1, 1, 0.75e-3, 5) // 5 W on one tiny tile
	_, err := Plan(f, DefaultTechnology(), 1.0, modelA())
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want unreachable-budget error", err)
	}
}

func TestPlanOneDModelOverprovisions(t *testing.T) {
	// The paper's conclusion, quantified: in the case-study regime the 1-D
	// model overestimates ΔT, so planning with it inserts more vias than
	// planning with Model A for the same budget.
	f := uniformFloorplan(3, 3, 0.75e-3, 84.0/169)
	budget := 13.0
	withA, err := Plan(f, DefaultTechnology(), budget, modelA())
	if err != nil {
		t.Fatal(err)
	}
	with1D, err := Plan(f, DefaultTechnology(), budget, core.Model1D{})
	if err != nil {
		t.Fatal(err)
	}
	if with1D.TotalVias <= withA.TotalVias {
		t.Errorf("1-D planned %d vias, Model A %d — expected overprovisioning",
			with1D.TotalVias, withA.TotalVias)
	}
}

func TestPlanValidation(t *testing.T) {
	tech := DefaultTechnology()
	good := uniformFloorplan(1, 1, 0.75e-3, 0.4)
	if _, err := Plan(good, tech, 0, modelA()); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Plan(&Floorplan{TileSide: 1e-3}, tech, 5, modelA()); err == nil {
		t.Error("empty floorplan accepted")
	}
	bad := uniformFloorplan(1, 1, -1, 0.4)
	if _, err := Plan(bad, tech, 5, modelA()); err == nil {
		t.Error("negative tile side accepted")
	}
	wrongPlanes := &Floorplan{TileSide: 1e-3, PlanePowers: [][][]float64{{{1, 2}}}}
	if err := wrongPlanes.Validate(tech); err == nil {
		t.Error("wrong plane count accepted")
	}
	negPower := uniformFloorplan(1, 1, 1e-3, 0.4)
	negPower.PlanePowers[0][0][1] = -1
	if err := negPower.Validate(tech); err == nil {
		t.Error("negative power accepted")
	}
	ragged := uniformFloorplan(2, 2, 1e-3, 0.4)
	ragged.PlanePowers[1] = ragged.PlanePowers[1][:1]
	if err := ragged.Validate(tech); err == nil {
		t.Error("ragged floorplan accepted")
	}
	tiny := uniformFloorplan(1, 1, 50e-6, 0.01) // tile smaller than one via footprint at cap
	if _, err := Plan(tiny, tech, 5, modelA()); err == nil {
		t.Error("tile too small for one via accepted")
	}
}

func TestNoViaDTMatchesSlabSum(t *testing.T) {
	tech := DefaultTechnology()
	powers := []float64{1, 0.5, 0.25}
	area := 1e-6
	got, err := noViaDT(powers, area, tech)
	if err != nil {
		t.Fatal(err)
	}
	// Hand sum.
	want := 1.75 * (tech.TSi1 - tech.Extension) / (tech.Si.K * area)
	want += 1.75 * (tech.TD/tech.ILD.K + tech.Extension/tech.Si.K) / area
	mid := tech.TD/tech.ILD.K + tech.TSi/tech.Si.K + tech.TB/tech.Bond.K
	want += 0.75 * mid / area
	want += 0.25 * mid / area
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("noViaDT = %g, want %g", got, want)
	}
}

// nonUniformFloorplan adds a hot corner and a cold stripe so different tiles
// plan different counts.
func nonUniformFloorplan() *Floorplan {
	f := uniformFloorplan(5, 7, 0.75e-3, 84.0/169)
	for p := range f.PlanePowers[0][0] {
		f.PlanePowers[0][0][p] *= 2.5
	}
	for c := range f.PlanePowers[2] {
		for p := range f.PlanePowers[2][c] {
			f.PlanePowers[2][c][p] *= 0.01
		}
	}
	return f
}

func TestPlanWithMatchesSequential(t *testing.T) {
	f := nonUniformFloorplan()
	tech := DefaultTechnology()
	want, err := PlanWith(f, tech, 13.0, modelA(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := PlanWith(f, tech, 13.0, modelA(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: plan differs from sequential\nseq: %+v\npar: %+v", workers, want, got)
		}
	}
}

// TestPlanWithSharedCacheCollapsesRepeatedTiles: the tiles of one plan
// share its cache, so identical tiles solve each via count once.
func TestPlanWithSharedCacheCollapsesRepeatedTiles(t *testing.T) {
	reg := obs.Default()
	hits, misses := reg.Counter("sweep.cache.hits"), reg.Counter("sweep.cache.misses")
	planCounts := func(f *Floorplan, workers int) (res *Result, h, m int64) {
		t.Helper()
		h0, m0 := hits.Value(), misses.Value()
		res, err := PlanWith(f, DefaultTechnology(), 13.0, modelA(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, hits.Value() - h0, misses.Value() - m0
	}
	one, _, oneTile := planCounts(uniformFloorplan(1, 1, 0.75e-3, 84.0/169), 1)
	res, h, m := planCounts(uniformFloorplan(4, 4, 0.75e-3, 84.0/169), 2)
	// 16 identical tiles bisect over identical via counts: every solve after
	// the first pass over the distinct counts must be a cache hit.
	if h == 0 {
		t.Errorf("plan cache saw no hits (hits=%d misses=%d)", h, m)
	}
	if m != oneTile {
		t.Errorf("16 identical tiles missed %d times, one tile alone %d", m, oneTile)
	}
	for r := range res.Counts {
		for c := range res.Counts[r] {
			if res.Counts[r][c] != one.Counts[0][0] || res.TileDT[r][c] != one.TileDT[0][0] {
				t.Fatalf("tile (%d,%d) planned %d vias at %g K, a lone tile %d at %g K",
					r, c, res.Counts[r][c], res.TileDT[r][c], one.Counts[0][0], one.TileDT[0][0])
			}
		}
	}
}

func TestPlanWithDeterministicError(t *testing.T) {
	// Two impossible tiles: the reported error must name the row-major first
	// one, (0,1), under any worker count.
	f := uniformFloorplan(2, 2, 0.75e-3, 84.0/169)
	for _, rc := range [][2]int{{0, 1}, {1, 0}} {
		for p := range f.PlanePowers[rc[0]][rc[1]] {
			f.PlanePowers[rc[0]][rc[1]][p] *= 1e4
		}
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := PlanWith(f, DefaultTechnology(), 13.0, modelA(), Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: impossible floorplan accepted", workers)
		}
		if !strings.Contains(err.Error(), "tile (0,1)") {
			t.Errorf("workers=%d: error %q does not name the row-major first failing tile", workers, err)
		}
	}
}

// tileModel answers ΔT = 100/(n+1) K for a tile of n vias. Its solve number
// tileStopAt cancels the plan, the way a caller's cancellation lands
// mid-tile; with tileBlock set it then waits until its own context ends (or
// tileRelease closes), as a solver notices cancellation between
// iterations. The state is package-level because the cache key encodes the
// model's fields.
type tileModel struct{}

var (
	tileSolves  atomic.Int32
	tileStopAt  int32
	tileBlock   bool
	tileCancel  context.CancelFunc
	tileRelease chan struct{}
)

func (m tileModel) Name() string { return "tile" }
func (m tileModel) Solve(s *stack.Stack) (*core.Result, error) {
	return m.SolveCtx(context.Background(), s)
}
func (tileModel) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	if tileSolves.Add(1) == tileStopAt {
		block, release := tileBlock, tileRelease // read before the test can move on
		tileCancel()
		if block {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
		}
	}
	return &core.Result{MaxDT: 100 / float64(s.Via.Count+1)}, nil
}

// TestPlanTileHonoursContext cancels a multi-tile plan during the third
// solve of its first tile, in the middle of the bisection. The plan must
// return context.Canceled promptly, and no solve may start after the
// cancel: not while the cancelled solve runs, and not as a further
// bisection step once a solve that ignores its context has answered.
func TestPlanTileHonoursContext(t *testing.T) {
	for _, block := range []bool{true, false} {
		f := uniformFloorplan(2, 2, 0.75e-3, 84.0/169)
		ctx, cancel := context.WithCancel(context.Background())
		tileSolves.Store(0)
		tileStopAt, tileBlock, tileCancel = 3, block, cancel
		tileRelease = make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			_, err := PlanWith(f, DefaultTechnology(), 13.0, tileModel{}, Options{Workers: 1, Ctx: ctx})
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("block=%v: plan returned %v, want context.Canceled", block, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("block=%v: plan still running 2 s after its context was cancelled", block)
		}
		close(tileRelease)
		if n := tileSolves.Load(); n != tileStopAt {
			t.Errorf("block=%v: %d solves ran, want %d: solves started after the cancel", block, n, tileStopAt)
		}
		cancel()
	}
}

// TestPlanTileSpansHoldTheirSolves: a traced reference-model plan nests
// every fem.solve span under the plan.tile span of the tile that asked for
// it.
func TestPlanTileSpansHoldTheirSolves(t *testing.T) {
	var buf bytes.Buffer
	f := uniformFloorplan(1, 2, 0.75e-3, 84.0/169)
	ctx := obs.ContextWithTracer(context.Background(), obs.NewTracer(&buf))
	if _, err := PlanWith(f, DefaultTechnology(), 13.0, fem.ReferenceModel{}, Options{Workers: 2, Ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Span   string `json:"span"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
	}
	spans := make(map[int64]rec)
	var solves []rec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		spans[r.ID] = r
		if r.Span == "fem.solve" {
			solves = append(solves, r)
		}
	}
	if len(solves) == 0 {
		t.Fatalf("no fem.solve spans in the trace:\n%s", buf.String())
	}
	for _, r := range solves {
		p := r
		for p.Parent != 0 && p.Span != "plan.tile" {
			p = spans[p.Parent]
		}
		if p.Span != "plan.tile" {
			t.Errorf("fem.solve span %d is not below a plan.tile span", r.ID)
		}
	}
}
