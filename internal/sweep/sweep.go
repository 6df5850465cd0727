// Package sweep is the batch-evaluation engine of the repository: it runs N
// independent (stack, model) thermal solves across a pool of workers with
// deterministic result ordering, per-job error capture, context
// cancellation, and optional memoization.
//
// Every figure and table of the paper is a sweep — solve the same stack
// family across a parameter range, per model — and planning workloads
// (plan.Plan, design-space exploration) evaluate thousands of candidate
// geometries. All of them funnel through Run.
//
// Jobs are independent by construction, so parallel execution is bitwise
// identical to the sequential path: every solver in this repository is
// deterministic and models are stateless values, making them safe for
// concurrent use.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
)

// Job is one evaluation: solve Stack with Model.
type Job struct {
	// Label optionally tags the job in reports; Name returns the model
	// name when it is empty.
	Label string
	// Stack is the geometry to solve. It must not be mutated while the
	// batch runs.
	Stack *stack.Stack
	// Model is the thermal model. Models must be safe for concurrent use;
	// all models in this repository are stateless values and qualify.
	Model core.Model
}

// Name returns the job's display name: the label when set, otherwise the
// model name.
func (j Job) Name() string {
	if j.Label != "" {
		return j.Label
	}
	if j.Model != nil {
		return j.Model.Name()
	}
	return "<no model>"
}

// Outcome is one job's result. Exactly one of Result and Err is set.
type Outcome struct {
	// Job echoes the evaluated job.
	Job Job
	// Result is the solved temperature report (nil when Err is set).
	Result *core.Result
	// Err captures the job's failure; one failing geometry does not abort
	// the batch.
	Err error
	// Runtime is the wall-clock time of this job's solve. A cache hit
	// performs no solve and reports the Runtime of the solve that produced
	// the cached result.
	Runtime time.Duration
	// FromCache reports whether the result came from the memoization cache.
	// A cached outcome carries the Runtime and Solver stats of the original
	// solve, so aggregation must skip outcomes with FromCache set or it
	// double-counts iterations and wall time.
	FromCache bool
	// Replayed reports that the outcome was restored from a checkpoint
	// journal (Options.Resume) instead of being solved in this run. Like
	// FromCache, a replayed Result carries the original solve's stats.
	Replayed bool
}

// Options configures a batch run. The zero value runs on GOMAXPROCS workers
// without memoization.
type Options struct {
	// Workers is the number of concurrent solvers; values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache optionally memoizes results keyed on geometry+model, making
	// repeated points (common in planning loops) free. The same Cache may
	// be shared across batches, at once or not, and each point is solved
	// once through it (see Cache).
	Cache *Cache
	// Deprecated: WarmStart is ignored. Every point solves on its own, and
	// a reference solve reuses memory only through fem's idle solver
	// contexts, which never changes its result.
	WarmStart bool
	// Journal optionally checkpoints every completed point as one NDJSON
	// record, so a killed run can be resumed (see ReadJournal and Resume).
	// Cancelled points are not journaled — a context error is not an
	// outcome. Replayed points ARE re-journaled, which keeps a journal
	// written across several resume sessions self-complete. Journal write
	// failures never abort the sweep; check Journal.Err after the run.
	Journal *Journal
	// Resume replays previously completed outcomes (from ReadJournal) by
	// global batch index instead of re-solving them; every point missing
	// from it is solved. Points are independent, so resumed results are
	// bit-identical to an uninterrupted run.
	Resume map[int]Outcome
	// Progress, when set, is called once per completed point with the global
	// batch index. It is invoked concurrently from worker goroutines; the
	// callback must be safe for concurrent use and should return quickly
	// (it runs on the solving goroutine).
	Progress func(i int, oc Outcome)
}

// Batch is an ordered set of evaluation jobs.
type Batch []Job

// Add appends a job and returns the batch for chaining.
func (b Batch) Add(label string, s *stack.Stack, m core.Model) Batch {
	return append(b, Job{Label: label, Stack: s, Model: m})
}

// Run evaluates all jobs across opt.Workers workers and returns one Outcome
// per job in job order (out[i] belongs to jobs[i], regardless of worker
// scheduling). Per-job failures are captured in Outcome.Err; Run itself only
// returns an error when ctx is cancelled, in which case the outcomes of jobs
// that never started carry the context error. When ctx carries a tracer
// (obs.ContextWithTracer), the batch records one "sweep.run" span with a
// "sweep.job" child per job, under which the solver spans (fem.solve,
// sparse.cg) of context-aware models nest.
func Run(ctx context.Context, jobs []Job, opt Options) ([]Outcome, error) {
	out, _, err := RunShard(ctx, jobs, ShardSpec{}, opt)
	return out, err
}

// RunShard evaluates one shard of the batch: the job-index range
// spec.Range(len(jobs)). It returns one Outcome per shard job (the slice
// covers [lo, lo+len(out)) of the batch) plus the shard's first global
// index. The zero spec evaluates the whole batch, making Run a special case.
//
// Because jobs are independent, running every shard of a partition (in any
// number of processes) and concatenating the outcomes in shard order yields
// exactly the outcomes of a single-process Run over the same jobs.
func RunShard(ctx context.Context, jobs []Job, spec ShardSpec, opt Options) ([]Outcome, int, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lo, hi := spec.Range(len(jobs))
	out, err := runRange(ctx, jobs, lo, hi, opt)
	return out, lo, err
}

// Workers is the size of the pool that runs n tasks when workers are
// asked for: runtime.GOMAXPROCS(0) when workers < 1, and never more than
// one worker per task.
func Workers(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Each calls do(i) for every i in [lo, hi) on Workers(workers, hi-lo)
// goroutines. It hands the indices out in order and stops handing them out
// once ctx ends; it returns when every call it started has returned. Calls
// run concurrently, so do must be safe for concurrent use.
func Each(ctx context.Context, workers, lo, hi int, do func(i int)) {
	workers = Workers(workers, hi-lo)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
feed:
	for i := lo; i < hi; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

// runRange is the batch core shared by Run and RunShard: it evaluates
// jobs[lo:hi] on the Each pool and returns their outcomes (out[0] belongs
// to jobs[lo]).
func runRange(ctx context.Context, jobs []Job, lo, hi int, opt Options) ([]Outcome, error) {
	n := hi - lo
	workers := Workers(opt.Workers, n)
	out := make([]Outcome, n)
	if n == 0 {
		return out, ctx.Err()
	}
	ctx, run := obs.StartSpan(ctx, "sweep.run")
	if run != nil {
		run.Set("jobs", n)
		run.Set("workers", workers)
		defer run.End()
	}
	busy := obs.Default().Gauge("sweep.workers.busy")

	finish := func(k int, oc Outcome) {
		out[k-lo] = oc
		if opt.Journal != nil && !isCancellation(oc.Err) {
			opt.Journal.point(k, oc)
		}
		if opt.Progress != nil {
			opt.Progress(k, oc)
		}
	}
	Each(ctx, workers, lo, hi, func(i int) {
		if oc, ok := opt.Resume[i]; ok {
			finish(i, oc)
			return
		}
		busy.Add(1)
		oc := evaluate(ctx, jobs[i], opt.Cache)
		busy.Add(-1)
		finish(i, oc)
	})

	if err := ctx.Err(); err != nil {
		// Mark the jobs that never ran (their zero Outcome has neither a
		// result nor an error).
		for k := range out {
			if out[k].Result == nil && out[k].Err == nil {
				out[k] = Outcome{Job: jobs[lo+k], Err: err}
			}
		}
		return out, err
	}
	return out, nil
}

// evaluate runs one job through the cache (or straight to the model when c
// is nil), converting panics of misbehaving models into errors so a single
// bad geometry cannot kill the whole sweep.
func evaluate(ctx context.Context, j Job, c *Cache) Outcome {
	oc := Outcome{Job: j}
	if err := ctx.Err(); err != nil {
		oc.Err = err
		return oc
	}
	if j.Model == nil {
		oc.Err = fmt.Errorf("sweep: job %q has no model", j.Name())
		return oc
	}
	if j.Stack == nil {
		oc.Err = fmt.Errorf("sweep: job %q has no stack", j.Name())
		return oc
	}
	ctx, sp := obs.StartSpan(ctx, "sweep.job")
	if sp != nil {
		sp.Set("job", j.Name())
		defer func() {
			sp.Set("from_cache", oc.FromCache)
			if oc.Err != nil {
				sp.Set("error", oc.Err.Error())
			}
			sp.End()
		}()
	}
	e, hit, err := c.do(ctx, j.Model, j.Stack)
	if err != nil {
		oc.Err = wrapErr(j, err)
		return oc
	}
	if !hit {
		recordJob(e.runtime, e.err)
	}
	// Raw errors are cached so each job wraps them with its own label.
	oc.Result, oc.Err, oc.Runtime, oc.FromCache = e.res, wrapErr(j, e.err), e.runtime, hit
	return oc
}

// jobSecondsBounds are the bucket bounds of sweep.job.seconds.
var jobSecondsBounds = obs.ExpBuckets(1e-6, 4, 13)

// recordJob feeds one solved (non-cached) job into the obs default registry.
func recordJob(d time.Duration, err error) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("sweep.jobs").Inc()
	if err != nil {
		r.Counter("sweep.job.failures").Inc()
	}
	r.Histogram("sweep.job.seconds", jobSecondsBounds).Observe(d.Seconds())
}

// wrapErr labels a job's failure with the job name.
func wrapErr(j Job, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("sweep: job %q: %w", j.Name(), err)
}

// solve invokes the model through core.Solve with panic capture: a
// cancelled batch stops its in-flight solves between solver iterations
// instead of running them to completion.
func solve(ctx context.Context, m core.Model, s *stack.Stack) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("model panicked: %v", r)
		}
	}()
	res, err = core.Solve(ctx, m, s)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("model returned no result")
	}
	return res, nil
}
