package ttsv_test

// Facade tests for the batch sweep engine and the solver-stats surface,
// exercised exactly as a downstream user would.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	ttsv "repro"
)

func TestSweepThroughFacade(t *testing.T) {
	models := []ttsv.Model{
		ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()},
		ttsv.NewModelB(20),
		ttsv.Model1D{},
	}
	var jobs ttsv.Batch
	for _, r := range []float64{5e-6, 10e-6, 20e-6} {
		s, err := ttsv.Fig4Block(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			jobs = jobs.Add("", s, m)
		}
	}
	seq, err := ttsv.Sweep(context.Background(), jobs, ttsv.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ttsv.Sweep(context.Background(), jobs, ttsv.SweepOptions{Workers: 4, Cache: ttsv.NewSweepCache()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Err != nil {
			t.Fatalf("job %d: %v", i, seq[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d: parallel result differs from sequential", i)
		}
	}
}

func TestSolveReferenceStatsThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	res := ttsv.DefaultResolution()
	max, stats, err := ttsv.SolveReferenceStats(s, res)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ttsv.SolveReference(s, res)
	if err != nil {
		t.Fatal(err)
	}
	if max != plain {
		t.Errorf("SolveReferenceStats ΔT %g != SolveReference %g", max, plain)
	}
	if !stats.Direct || stats.Iterations != 0 || stats.Bandwidth <= 0 {
		t.Errorf("default-mesh reference solve ran %v, want the direct solve", stats)
	}
	if stats.Residual <= 0 {
		t.Errorf("residual %g not populated", stats.Residual)
	}
	if stats.String() == "" {
		t.Error("stats String is empty")
	}
}

// Cancelling a sweep must stop reference solves that are already running —
// the solver checks the context between CG iterations — not just prevent
// queued jobs from starting.
func TestSweepCancellationStopsInFlightSolves(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	// An 8x-refined mesh runs multigrid-preconditioned CG, and each solve
	// takes long enough (several hundred milliseconds) that the cancellation
	// below lands mid-iteration; a 4x grid or smaller is factored direct,
	// which checks the context only before its factor and before its sweeps.
	m := ttsv.ReferenceModel(ttsv.DefaultResolution().Refine(8))
	var jobs ttsv.Batch
	for i := 0; i < 4; i++ {
		jobs = jobs.Add("", s, m)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	out, err := ttsv.Sweep(ctx, jobs, ttsv.SweepOptions{Workers: 1})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep err = %v, want context.Canceled", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(out), len(jobs))
	}
	for i, oc := range out {
		if !errors.Is(oc.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, oc.Err)
		}
	}
	// The first job was in-flight when the context died, so its error must
	// come from the solver's mid-iteration check, not the pre-start gate.
	if !strings.Contains(out[0].Err.Error(), "cancelled after") {
		t.Errorf("first job not cancelled mid-solve: %v", out[0].Err)
	}
	// Four refined solves run well over a second sequentially; a cancelled
	// sweep must come back almost immediately.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v", elapsed)
	}
}

func TestReferenceModelThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	m := ttsv.ReferenceModel(ttsv.Resolution{})
	r, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ttsv.SolveReference(s, ttsv.DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxDT != want {
		t.Errorf("ReferenceModel ΔT %g != SolveReference %g", r.MaxDT, want)
	}
	if !r.Solver.Direct || r.Solver.Residual <= 0 {
		t.Errorf("Result.Solver not populated: %+v", r.Solver)
	}
}

func TestDirectSolvesReportNoIterations(t *testing.T) {
	// Result.Solver reports iterative solves only. Model A's tiny network and
	// Model B's narrow-banded π-chains both factorize directly, so their
	// stats must stay zero — only the FVM reference (covered above) iterates.
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ttsv.Model{
		ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()},
		ttsv.NewModelB(500),
	} {
		r, err := m.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Solver != (ttsv.SolverStats{}) {
			t.Errorf("%s: direct solve reported iterative stats %+v", m.Name(), r.Solver)
		}
	}
}

func TestPlanInsertionWithThroughFacade(t *testing.T) {
	f := &ttsv.Floorplan{TileSide: 0.75e-3}
	for r := 0; r < 3; r++ {
		var row [][]float64
		for c := 0; c < 3; c++ {
			row = append(row, []float64{0.4, 0.05, 0.05})
		}
		f.PlanePowers = append(f.PlanePowers, row)
	}
	m := ttsv.ModelA{Coeffs: ttsv.PaperSystemCoeffs()}
	tech := ttsv.DefaultTechnology()
	want, err := ttsv.PlanInsertion(f, tech, 13.0, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ttsv.PlanInsertionWith(f, tech, 13.0, m, ttsv.PlanOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel plan differs from sequential: %+v vs %+v", got, want)
	}
}
