// Command ttsvsolve analyzes one user-specified 3-D IC block with any of the
// TTSV thermal models. All lengths are given in micrometers on the command
// line and converted internally.
//
//	ttsvsolve -model A -r 10 -tl 1 -tsi 45
//	ttsvsolve -model B -segments 200 -planes 4 -r 5
//	ttsvsolve -model all -r 8 -vias 4            # cluster of 4, all models
//	ttsvsolve -model ref -r 8                    # FVM reference solve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	ttsv "repro"
	"repro/internal/clideck"
	"repro/internal/cliobs"
	"repro/internal/deck"
	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

func main() {
	// Ctrl-C / SIGTERM cancel the run's context instead of killing the
	// process outright, so deferred cleanup (notably the -trace NDJSON
	// flush in cliobs.Finish) still runs and partial output stays
	// well-formed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ttsvsolve: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ttsvsolve", flag.ContinueOnError)
	model := fs.String("model", "all", "model to run: A, B, 1D, ref or all")
	segments := fs.Int("segments", 100, "Model B segments per plane")
	planes := fs.Int("planes", 3, "number of planes")
	r := fs.Float64("r", 10, "via radius [µm]")
	tl := fs.Float64("tl", 0.5, "liner thickness [µm]")
	td := fs.Float64("td", 4, "ILD thickness [µm]")
	tb := fs.Float64("tb", 1, "bond thickness [µm]")
	tsi := fs.Float64("tsi", 45, "upper-plane substrate thickness [µm]")
	tsi1 := fs.Float64("tsi1", 500, "first-plane substrate thickness [µm]")
	side := fs.Float64("side", 100, "square footprint side [µm]")
	vias := fs.Int("vias", 1, "split the via into this many (equal metal area)")
	k1 := fs.Float64("k1", 1.3, "Model A fitting coefficient k1")
	k2 := fs.Float64("k2", 0.55, "Model A fitting coefficient k2")
	devDensity := fs.Float64("qdev", 700, "device power density [W/mm³]")
	ildDensity := fs.Float64("qild", 70, "interconnect power density [W/mm³]")
	workers := fs.Int("workers", 0, "parallel sweep/plan workers for -deck runs (0 = all CPUs); output is identical for any count")
	precond := fs.String("precond", "auto", "reference solver: auto (banded Cholesky on small grids, multigrid above) or mg (always multigrid; only -model ref)")
	verbose := fs.Bool("v", false, "print the reference solve's linear-solver statistics (method, iterations, half-bandwidth, factor reuse, residual)")
	config := fs.String("config", "", "JSON block config file (SI units); explicit flags override its fields")
	deckPath := fs.String("deck", "", ".ttsv scenario deck file; runs its analysis cards and ignores the geometry flags")
	sweepf := clideck.Register(fs)
	obsf := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deckPath == "" && sweepf.Set() {
		return fmt.Errorf("-shard/-journal/-resume/-merge/-progress control a deck's .sweep and require -deck")
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
		ctl, err := sweepf.Control(os.Stderr)
		if err != nil {
			return err
		}
		d, err := ttsv.ParseDeckFile(*deckPath)
		if err != nil {
			return err
		}
		res, err := ttsv.RunDeck(ctx, d, ttsv.DeckOptions{Workers: *workers, Sweep: ctl})
		if err != nil {
			return err
		}
		return res.WriteText(out)
	}

	cfg := ttsv.DefaultBlock()
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return err
		}
		cfg, err = stack.LoadBlockConfig(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	// Geometry flags apply on top of the config only when given explicitly,
	// so a config file and a quick command-line tweak compose.
	explicit := make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	apply := func(name string, set func()) {
		if *config == "" || explicit[name] {
			set()
		}
	}
	apply("planes", func() { cfg.NumPlanes = *planes })
	apply("r", func() { cfg.R = units.UM(*r) })
	apply("tl", func() { cfg.TL = units.UM(*tl) })
	apply("td", func() { cfg.TD = units.UM(*td) })
	apply("tb", func() { cfg.TB = units.UM(*tb) })
	apply("tsi", func() { cfg.TSi = units.UM(*tsi) })
	apply("tsi1", func() { cfg.TSi1 = units.UM(*tsi1) })
	apply("side", func() { cfg.FootprintSide = units.UM(*side) })
	apply("vias", func() { cfg.ViaCount = *vias })
	apply("qdev", func() { cfg.DevicePowerDensity = units.WPerMM3(*devDensity) })
	apply("qild", func() { cfg.ILDPowerDensity = units.WPerMM3(*ildDensity) })
	s, err := cfg.Build()
	if err != nil {
		return err
	}
	sideUM := units.ToUM(cfg.FootprintSide)
	fmt.Fprintf(out, "block: %d planes, A0 = %g µm², via r = %g µm ×%d, Σq = %.4g W\n",
		len(s.Planes), sideUM*sideUM, units.ToUM(s.Via.Radius), s.Via.EffectiveCount(), s.TotalPower())
	if err := s.ValidateFabrication(); err != nil {
		fmt.Fprintf(out, "warning: %v\n", err)
	}

	// Models come from the spec decks and ttsvd lower to, under the same
	// checks (Model B's segments at most deck.MaxSegments among them).
	spec := deck.ModelSpec{Model: *model, Segments: *segments, Precond: *precond}
	models, err := spec.Models("all", ttsv.Coeffs{K1: *k1, K2: *k2, C1: 1})
	if err != nil {
		return err
	}
	if ref, ok := models[0].(fem.ReferenceModel); ok && len(models) == 1 {
		// The run's one solve gets a context of its own, so what -v reports
		// never depends on solves an embedding process ran before.
		sc := ttsv.NewSolveContext()
		defer sc.Close()
		dt, st, err := ttsv.SolveReferenceStatsWith(ctx, sc, s, ref.Res)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "FVM reference: max ΔT = %.3f K (absolute %.2f °C)\n", dt, dt+s.SinkTemp)
		if *verbose {
			fmt.Fprintf(out, "solver: %s in %v\n", st, (st.Factor + st.Wall).Round(time.Microsecond))
			if st.Direct {
				fmt.Fprintf(out, "solver: factor %v, sweeps %v\n", st.Factor.Round(time.Microsecond), st.Wall.Round(time.Microsecond))
			}
		}
		return nil
	}
	for _, m := range models {
		res, err := m.Solve(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8s max ΔT = %.3f K (absolute %.2f °C), planes %s\n",
			m.Name(), res.MaxDT, res.MaxDT+s.SinkTemp, formatPlanes(res.PlaneDT))
	}
	return nil
}

func formatPlanes(dts []float64) string {
	s := "["
	for i, dt := range dts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", dt)
	}
	return s + "]"
}
