package chip

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/units"
)

func demoFloorplan(rows, cols int, watts float64) *plan.Floorplan {
	f := &plan.Floorplan{TileSide: 0.75e-3}
	for r := 0; r < rows; r++ {
		var row [][]float64
		for c := 0; c < cols; c++ {
			row = append(row, []float64{watts * 5 / 6, watts / 12, watts / 12})
		}
		f.PlanePowers = append(f.PlanePowers, row)
	}
	return f
}

func uniformCounts(rows, cols, n int) [][]int {
	out := make([][]int, rows)
	for r := range out {
		out[r] = make([]int, cols)
		for c := range out[r] {
			out[r][c] = n
		}
	}
	return out
}

func TestPowerMapUniformMatchesUnitCell(t *testing.T) {
	// A uniform power map with a uniform via allocation is exactly the
	// symmetric-array case: the full-chip 3-D solve must land near the
	// planner's per-tile (adiabatic unit cell) prediction.
	if testing.Short() {
		t.Skip("3-D power-map solve is slow")
	}
	tech := plan.DefaultTechnology()
	const watts = 84.0 / 169
	f := demoFloorplan(4, 4, watts)
	counts := uniformCounts(4, 4, 2)
	sol, err := SolvePowerMap(context.Background(), f, tech, counts)
	if err != nil {
		t.Fatal(err)
	}
	// Per-tile reference: the same tile solved by Model B on the unit stack.
	s, err := plan.TileStack(f.PlanePowers[0][0], f.TileSide*f.TileSide, tech, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewModelB(100).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := units.RelErr(sol.MaxDT, ref.MaxDT); e > 0.25 {
		t.Errorf("full-chip %g vs unit cell %g differ by %.0f%%", sol.MaxDT, ref.MaxDT, 100*e)
	}
	// Interior uniformity: all tiles within a few percent of each other.
	if e := units.RelErr(sol.TileMaxDT[0][0], sol.TileMaxDT[2][2]); e > 0.05 {
		t.Errorf("uniform map produced non-uniform tiles: %v", sol.TileMaxDT)
	}
}

func TestPowerMapHotspotCoupling(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D power-map solve is slow")
	}
	tech := plan.DefaultTechnology()
	// Hot center tile in a cool neighborhood.
	f := demoFloorplan(3, 3, 0.15)
	for p := range f.PlanePowers[1][1] {
		f.PlanePowers[1][1][p] *= 4
	}
	counts := uniformCounts(3, 3, 1)
	coupled, err := SolvePowerMap(context.Background(), f, tech, counts)
	if err != nil {
		t.Fatal(err)
	}
	// The planner's adiabatic tile model for the hot tile alone.
	s, err := plan.TileStack(f.PlanePowers[1][1], f.TileSide*f.TileSide, tech, 1)
	if err != nil {
		t.Fatal(err)
	}
	isolated, err := core.NewModelB(100).Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	// Lateral coupling lets the hot tile shed heat into its neighbors: the
	// true hot-tile peak must be LOWER than the adiabatic-tile prediction —
	// the planner is conservative, never optimistic.
	if coupled.TileMaxDT[1][1] >= isolated.MaxDT {
		t.Errorf("full-chip hot tile %g not below adiabatic prediction %g",
			coupled.TileMaxDT[1][1], isolated.MaxDT)
	}
	// And the hot tile is still the hottest on the chip.
	if coupled.TileMaxDT[1][1] <= coupled.TileMaxDT[0][0] {
		t.Errorf("hot tile %g not hotter than corner %g",
			coupled.TileMaxDT[1][1], coupled.TileMaxDT[0][0])
	}
}

func TestPowerMapMoreViasCooler(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D power-map solve is slow")
	}
	tech := plan.DefaultTechnology()
	f := demoFloorplan(2, 2, 0.4)
	sparse1, err := SolvePowerMap(context.Background(), f, tech, uniformCounts(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	dense4, err := SolvePowerMap(context.Background(), f, tech, uniformCounts(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if dense4.MaxDT >= sparse1.MaxDT {
		t.Errorf("4 vias/tile (%g) not cooler than 1 via/tile (%g)", dense4.MaxDT, sparse1.MaxDT)
	}
}

func TestPowerMapValidation(t *testing.T) {
	tech := plan.DefaultTechnology()
	f := demoFloorplan(2, 2, 0.4)
	if _, err := SolvePowerMap(context.Background(), f, tech, uniformCounts(1, 2, 1)); err == nil {
		t.Error("wrong counts rows accepted")
	}
	if _, err := SolvePowerMap(context.Background(), f, tech, [][]int{{1, 1}, {1}}); err == nil {
		t.Error("ragged counts accepted")
	}
	bad := uniformCounts(2, 2, 1)
	bad[0][0] = -1
	if _, err := SolvePowerMap(context.Background(), f, tech, bad); err == nil {
		t.Error("negative count accepted")
	}
	over := uniformCounts(2, 2, 1)
	over[0][0] = 1000 // via area exceeds the tile
	if _, err := SolvePowerMap(context.Background(), f, tech, over); err == nil {
		t.Error("over-dense tile accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolvePowerMap(cancelled, f, tech, uniformCounts(2, 2, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled solve: err = %v, want context.Canceled", err)
	}
}
