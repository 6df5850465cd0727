package sweep

import (
	"context"
	"testing"

	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

// reuseJobs builds a radius sweep of reference-solver jobs: one model value
// shared by all jobs, so sweep workers cache its patterns and hierarchies.
func reuseJobs(t *testing.T, n int) []Job {
	t.Helper()
	m := fem.ReferenceModel{}
	jobs := make([]Job, n)
	for i := range jobs {
		s, err := stack.Fig4Block(units.UM(4 + 2*float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{Stack: s, Model: m}
	}
	return jobs
}

func maxDTs(t *testing.T, out []Outcome) []float64 {
	t.Helper()
	dts := make([]float64, len(out))
	for i, oc := range out {
		if oc.Err != nil {
			t.Fatalf("job %d failed: %v", i, oc.Err)
		}
		dts[i] = oc.Result.MaxDT
	}
	return dts
}

// freshMaxDTs solves every job on its own through a new SolveContext — no
// worker, no factor or hierarchy of any earlier solve, only recycled
// storage — and returns the max ΔT of each.
func freshMaxDTs(t *testing.T, jobs []Job) []float64 {
	t.Helper()
	dts := make([]float64, len(jobs))
	for i, j := range jobs {
		sc := fem.NewSolveContext()
		sol, err := fem.SolveStackWith(context.Background(), sc, j.Stack, j.Model.(fem.ReferenceModel).Res)
		sc.Close()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		dts[i], _, _ = sol.MaxT()
	}
	return dts
}

// TestSweepReuseWorkerInvariance is the sweep-level reuse property: with
// the reference model's solver state reused through fem's idle contexts,
// results must be bit-identical for any worker count and to fresh per-job
// solves — reuse recycles memory, never numbers.
func TestSweepReuseWorkerInvariance(t *testing.T) {
	jobs := reuseJobs(t, 12)
	want := freshMaxDTs(t, jobs)
	for _, workers := range []int{1, 2, 4, 8} {
		out, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := maxDTs(t, out)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d job %d: reuse %v vs fresh %v (must be bit-identical)", workers, i, got[i], want[i])
			}
		}
	}
}
