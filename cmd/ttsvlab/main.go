// Command ttsvlab regenerates every table and figure of the paper's
// evaluation section:
//
//	ttsvlab fig4        max ΔT vs TTSV radius            (paper Fig. 4)
//	ttsvlab fig5        max ΔT vs liner thickness        (paper Fig. 5)
//	ttsvlab table1      Model B error/runtime vs segments (paper Table I)
//	ttsvlab fig6        max ΔT vs substrate thickness    (paper Fig. 6)
//	ttsvlab fig7        max ΔT vs number of TTSVs        (paper Fig. 7)
//	ttsvlab casestudy   3-D DRAM-µP system               (paper §IV-E)
//	ttsvlab calibrate   re-derive Model A's k1/k2 vs the FVM reference
//	ttsvlab all         everything above plus the headline error summary
//
// Flags:
//
//	-quick       thin sweeps on the default reference mesh (fast smoke run)
//	-plot        also draw ASCII figures for the sweeps
//	-csv DIR     write each table as CSV into DIR
//	-workers N   solve sweep points on N parallel workers (0 = all CPUs);
//	             output tables are identical for any worker count
//	-deck FILE   run a .ttsv scenario deck instead of a named experiment;
//	             -shard i/n, -journal FILE, -resume, -merge F1,F2,... and
//	             -progress shard, checkpoint, resume and merge its .sweep
//	             (see README "Sharded & resumable sweeps")
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	ttsv "repro"
	"repro/internal/clideck"
	"repro/internal/cliobs"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sparse"
)

func main() {
	// Ctrl-C / SIGTERM cancel the run's context instead of killing the
	// process outright, so deferred cleanup (notably the -trace NDJSON
	// flush in cliobs.Finish) still runs and partial output stays
	// well-formed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ttsvlab: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ttsvlab", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "thin sweeps on the default reference mesh")
	plot := fs.Bool("plot", false, "draw ASCII figures for the sweeps")
	csvDir := fs.String("csv", "", "write tables as CSV into this directory")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = all CPUs); tables are identical for any count")
	precond := fs.String("precond", "auto", "reference solver: auto (banded Cholesky on small grids, multigrid above) or mg (always multigrid)")
	deckPath := fs.String("deck", "", ".ttsv scenario deck file; runs its analysis cards instead of a named experiment")
	sweepf := clideck.Register(fs)
	obsf := cliobs.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ttsvlab [-quick] [-plot] [-csv DIR] [-workers N] [-precond KIND] [-trace FILE] [-metrics] [-pprof ADDR] [-deck FILE [-shard I/N] [-journal FILE] [-resume] [-merge F1,F2,...] [-progress]] {fig4|fig5|fig6|fig7|table1|casestudy|calibrate|planes|transient|all}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deckPath == "" && fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one experiment required")
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
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Ctx = ctx
	cfg.Workers = *workers
	pk, err := sparse.ParsePrecond(*precond)
	if err != nil {
		return err
	}
	cfg.Resolution.Precond = pk
	app := &app{cfg: cfg, plot: *plot, csvDir: *csvDir, out: out}
	cmd := fs.Arg(0)
	switch cmd {
	case "fig4":
		return app.sweep(experiments.Fig4)
	case "fig5":
		return app.sweep(experiments.Fig5)
	case "fig6":
		return app.sweep(experiments.Fig6)
	case "fig7":
		return app.sweep(experiments.Fig7)
	case "table1":
		return app.table1()
	case "casestudy":
		return app.caseStudy()
	case "calibrate":
		return app.calibrate()
	case "planes":
		return app.sweep(experiments.PlaneScaling)
	case "transient":
		return app.transient()
	case "all":
		return app.all()
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

type app struct {
	cfg    experiments.Config
	plot   bool
	csvDir string
	out    io.Writer
}

func (a *app) emit(id string, t *report.Table) error {
	if err := t.Render(a.out); err != nil {
		return err
	}
	fmt.Fprintln(a.out)
	if a.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(a.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(a.csvDir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "wrote %s\n\n", path)
	return nil
}

func (a *app) sweep(fn func(experiments.Config) (*experiments.Sweep, error)) error {
	t0 := time.Now()
	sw, err := fn(a.cfg)
	if err != nil {
		return err
	}
	if err := a.emit(sw.ID, sw.Table()); err != nil {
		return err
	}
	stats := sw.ErrorStats()
	errs := report.NewTable("error vs. "+experiments.RefName, "model", "avg", "max", "avg runtime")
	for _, m := range sw.Models {
		if m == experiments.RefName {
			errs.AddRow(m, "-", "-", stats[m].AvgRuntime.Round(time.Microsecond).String())
			continue
		}
		errs.AddRow(m,
			fmt.Sprintf("%.1f%%", 100*stats[m].Avg),
			fmt.Sprintf("%.1f%%", 100*stats[m].Max),
			stats[m].AvgRuntime.Round(time.Microsecond).String())
	}
	if err := a.emit(sw.ID+"_errors", errs); err != nil {
		return err
	}
	if a.plot {
		if err := sw.Plot().Render(a.out, 68, 20); err != nil {
			return err
		}
		fmt.Fprintln(a.out)
	}
	fmt.Fprintf(a.out, "(%s in %v)\n", sw.ID, time.Since(t0).Round(time.Millisecond))
	return nil
}

func (a *app) table1() error {
	res, err := experiments.Table1(a.cfg)
	if err != nil {
		return err
	}
	return a.emit("table1", res.Table())
}

func (a *app) caseStudy() error {
	res, err := experiments.CaseStudy(a.cfg)
	if err != nil {
		return err
	}
	return a.emit("casestudy", res.Table())
}

func (a *app) calibrate() error {
	res, err := experiments.Calibrate(a.cfg)
	if err != nil {
		return err
	}
	t := report.NewTable("Model A coefficients calibrated against the FVM reference",
		"k1", "k2", "c1", "rms error", "points")
	t.AddRow(
		fmt.Sprintf("%.3f", res.Coeffs.K1),
		fmt.Sprintf("%.3f", res.Coeffs.K2),
		fmt.Sprintf("%.3f", res.Coeffs.C1),
		fmt.Sprintf("%.2f%%", 100*res.RMS),
		fmt.Sprintf("%d", res.Points))
	return a.emit("calibrate", t)
}

func (a *app) transient() error {
	res, err := experiments.Transient(a.cfg)
	if err != nil {
		return err
	}
	return a.emit("transient", res.Table())
}

func (a *app) all() error {
	// Calibrate first so every sweep can carry the "A(cal)" column — Model A
	// fitted to this repository's reference the way the paper's was fitted
	// to COMSOL.
	cal, err := experiments.Calibrate(a.cfg)
	if err != nil {
		return err
	}
	a.cfg.CalibratedA = &cal.Coeffs
	fmt.Fprintf(a.out, "calibrated Model A against the reference: k1 = %.3f, k2 = %.3f (rms %.1f%%)\n\n",
		cal.Coeffs.K1, cal.Coeffs.K2, 100*cal.RMS)
	for _, fn := range []func(experiments.Config) (*experiments.Sweep, error){
		experiments.Fig4, experiments.Fig5, experiments.Fig6, experiments.Fig7,
	} {
		if err := a.sweep(fn); err != nil {
			return err
		}
	}
	if err := a.table1(); err != nil {
		return err
	}
	if err := a.caseStudy(); err != nil {
		return err
	}
	head, err := experiments.Headline(a.cfg)
	if err != nil {
		return err
	}
	return a.emit("headline", head.Table())
}
