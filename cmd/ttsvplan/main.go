// Command ttsvplan runs budget-driven TTSV insertion planning on a tiled
// power map and optionally verifies the plan with the full-chip 3-D solver.
//
//	ttsvplan -floorplan chip.json -budget 14
//	ttsvplan -floorplan chip.json -budget 14 -model 1D      # the paper's warning
//	ttsvplan -floorplan chip.json -budget 14 -verify        # 3-D check
//
// The floorplan file is a JSON plan.Floorplan (SI units):
//
//	{
//	  "TileSide": 0.00075,
//	  "PlanePowers": [[[0.4, 0.05, 0.05], [0.4, 0.05, 0.05]]]
//	}
//
// PlanePowers is indexed [row][col][plane] in watts, plane 0 adjacent to the
// heat sink.
//
// The -verify solve is calibrated against Model B, so a plan computed with
// Model A (whose fitted coefficients run a few percent cooler) may draw a
// warning even though it meets its own model's budget — plan with -model B
// for a self-consistent verification.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	ttsv "repro"
	"repro/internal/cliobs"
	"repro/internal/deck"
)

func main() {
	// Ctrl-C / SIGTERM cancel the run's context instead of killing the
	// process outright, so deferred cleanup (notably the -trace NDJSON
	// flush in cliobs.Finish) still runs and partial output stays
	// well-formed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ttsvplan: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ttsvplan", flag.ContinueOnError)
	fpPath := fs.String("floorplan", "", "JSON floorplan file (required unless -deck is given)")
	deckPath := fs.String("deck", "", ".ttsv scenario deck file; runs its analysis cards instead of -floorplan")
	budget := fs.Float64("budget", 15, "maximum allowed temperature rise [K]")
	model := fs.String("model", "A", "thermal model: A, B, 1D or ref")
	segments := fs.Int("segments", 100, "Model B segments per plane")
	k1 := fs.Float64("k1", 1.6, "Model A coefficient k1 (system default)")
	k2 := fs.Float64("k2", 0.8, "Model A coefficient k2 (system default)")
	c1 := fs.Float64("c1", 3.5, "Model A plane-1 spreading coefficient")
	verify := fs.Bool("verify", false, "run the full-chip 3-D verification solve")
	workers := fs.Int("workers", 0, "parallel tile-planning workers (0 = all CPUs); the plan is identical for any count")
	obsf := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fpPath == "" && *deckPath == "" {
		fs.Usage()
		return fmt.Errorf("-floorplan or -deck is required")
	}
	tracer, err := obsf.Start(out)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := obsf.Finish(out); err == nil {
			err = ferr
		}
	}()
	ctx = ttsv.TraceContext(ctx, tracer)
	if *deckPath != "" {
		d, err := ttsv.ParseDeckFile(*deckPath)
		if err != nil {
			return err
		}
		res, err := ttsv.RunDeck(ctx, d, ttsv.DeckOptions{Workers: *workers})
		if err != nil {
			return err
		}
		return res.WriteText(out)
	}
	f, err := loadFloorplan(*fpPath)
	if err != nil {
		return err
	}

	// The model comes from the spec decks and ttsvd lower to, under the
	// same checks; a plan takes one, as /plan does.
	spec := deck.ModelSpec{Model: *model, Segments: *segments}
	models, err := spec.Models("a", ttsv.Coeffs{K1: *k1, K2: *k2, C1: *c1})
	if err != nil {
		return err
	}
	if len(models) != 1 {
		return fmt.Errorf("plan takes exactly one model, got %d", len(models))
	}
	m := models[0]

	tech := ttsv.DefaultTechnology()
	res, err := ttsv.PlanInsertionWith(f, tech, *budget, m, ttsv.PlanOptions{Ctx: ctx, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "plan (%s, budget %.1f K): %d vias, %.3f mm² via metal, max ΔT %.2f K\n",
		m.Name(), *budget, res.TotalVias, res.ViaArea*1e6, res.MaxDT)
	fmt.Fprintln(out, "via counts per tile:")
	for _, row := range res.Counts {
		for _, n := range row {
			fmt.Fprintf(out, "%4d", n)
		}
		fmt.Fprintln(out)
	}
	if *verify {
		full, err := ttsv.VerifyPlan(ctx, f, tech, res.Counts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "full-chip 3-D verification (%d cells): max ΔT %.2f K\n", full.Cells, full.MaxDT)
		if full.MaxDT > *budget {
			fmt.Fprintln(out, "WARNING: chip-wide peak exceeds the budget")
		} else {
			fmt.Fprintln(out, "plan holds chip-wide")
		}
	}
	return nil
}

func loadFloorplan(path string) (*ttsv.Floorplan, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	dec := json.NewDecoder(fh)
	dec.DisallowUnknownFields()
	var f ttsv.Floorplan
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decoding floorplan %s: %w", path, err)
	}
	return &f, nil
}
