// Insertion planning: the paper's closing argument, quantified. A planner
// assigns TTSVs tile-by-tile to keep a chip under a thermal budget; TTSVs
// consume active silicon, so every extra via is wasted area. Running the
// same floorplan through Model A and through the traditional 1-D model shows
// how the 1-D model's overestimate (it ignores the lateral heat entering the
// vias through their liners) inflates the via count — "excessive usage of
// TTSVs, a critical resource in 3-D ICs".
package main

import (
	"context"
	"fmt"
	"log"

	ttsv "repro"
)

func main() {
	// A 6×6-tile processor+DRAM stack, 0.75 mm tiles. The center 2×2 block
	// is a compute hot spot at 3× the background density.
	const (
		tiles      = 6
		tileSide   = 0.75e-3
		background = 0.35 // W per tile
		budget     = 14.0 // K above the heat sink
	)
	f := &ttsv.Floorplan{TileSide: tileSide}
	for r := 0; r < tiles; r++ {
		var row [][]float64
		for c := 0; c < tiles; c++ {
			w := background
			if (r == 2 || r == 3) && (c == 2 || c == 3) {
				w *= 3
			}
			// Processor plane carries 5/6 of the power, DRAM planes the rest.
			row = append(row, []float64{w * 5 / 6, w / 12, w / 12})
		}
		f.PlanePowers = append(f.PlanePowers, row)
	}
	tech := ttsv.DefaultTechnology()

	planA, err := ttsv.PlanInsertion(f, tech, budget, ttsv.ModelA{Coeffs: ttsv.PaperSystemCoeffs()})
	if err != nil {
		log.Fatal(err)
	}
	plan1D, err := ttsv.PlanInsertion(f, tech, budget, ttsv.Model1D{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("budget: %.1f K above the heat sink, %dx%d tiles\n\n", budget, tiles, tiles)
	fmt.Println("via counts per tile, planned with Model A:")
	printGrid(planA.Counts)
	fmt.Println("\nvia counts per tile, planned with the 1-D model:")
	printGrid(plan1D.Counts)

	fmt.Printf("\nModel A plan:  %4d vias (%.3f mm² of via metal), max ΔT %.2f K\n",
		planA.TotalVias, planA.ViaArea*1e6, planA.MaxDT)
	fmt.Printf("1-D plan:      %4d vias (%.3f mm² of via metal), max ΔT %.2f K\n",
		plan1D.TotalVias, plan1D.ViaArea*1e6, plan1D.MaxDT)
	extra := plan1D.TotalVias - planA.TotalVias
	fmt.Printf("\nthe 1-D model would insert %d extra vias (+%.0f%%) for the same budget —\n",
		extra, 100*float64(extra)/float64(planA.TotalVias))
	fmt.Println("silicon area wasted because it cannot see the lateral liner heat path")

	// Verify Model A's plan with the full-chip 3-D solve: unlike the
	// planner's adiabatic tiles, it resolves lateral heat sharing between
	// tiles, so the true peak should come in at or under the plan's claim.
	full, err := ttsv.VerifyPlan(context.Background(), f, tech, planA.Counts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull-chip 3-D verification (%d cells): max ΔT %.2f K vs planned %.2f K\n",
		full.Cells, full.MaxDT, planA.MaxDT)
	if full.MaxDT <= budget {
		fmt.Println("the plan holds chip-wide — tile coupling only helps")
	}
}

func printGrid(counts [][]int) {
	for _, row := range counts {
		for _, n := range row {
			fmt.Printf("%4d", n)
		}
		fmt.Println()
	}
}
