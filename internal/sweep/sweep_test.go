package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/units"
)

func fig4Stack(t testing.TB, r float64) *stack.Stack {
	t.Helper()
	s, err := stack.Fig4Block(units.UM(r))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// failModel errors on every solve.
type failModel struct{}

func (failModel) Name() string                             { return "fail" }
func (failModel) Solve(*stack.Stack) (*core.Result, error) { return nil, errors.New("boom") }

// panickyModel panics on every solve.
type panickyModel struct{}

func (panickyModel) Name() string { return "panicky" }
func (panickyModel) Solve(*stack.Stack) (*core.Result, error) {
	panic("deliberate test panic")
}

func TestRunOrderAndResults(t *testing.T) {
	m := core.Model1D{}
	var jobs Batch
	radii := []float64{2, 5, 10, 20}
	for _, r := range radii {
		jobs = jobs.Add("", fig4Stack(t, r), m)
	}
	outs, err := Run(context.Background(), jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("job %d: %v", i, oc.Err)
		}
		want, err := m.Solve(jobs[i].Stack)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Result.MaxDT != want.MaxDT {
			t.Errorf("job %d: out-of-order result: got %.4f want %.4f", i, oc.Result.MaxDT, want.MaxDT)
		}
		if oc.Runtime < 0 {
			t.Errorf("job %d: negative runtime %v", i, oc.Runtime)
		}
	}
}

func TestRunCapturesPerJobErrors(t *testing.T) {
	s := fig4Stack(t, 10)
	jobs := Batch{}.
		Add("ok", s, core.Model1D{}).
		Add("bad", s, failModel{}).
		Add("also ok", s, core.Model1D{})
	outs, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatalf("batch error for a per-job failure: %v", err)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("failing model produced no error")
	}
	if !strings.Contains(outs[1].Err.Error(), `"bad"`) {
		t.Errorf("error %q does not name the job", outs[1].Err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	s := fig4Stack(t, 10)
	jobs := Batch{}.
		Add("kaboom", s, panickyModel{}).
		Add("survivor", s, core.Model1D{})
	outs, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Errorf("panic killed a later job: %v", outs[1].Err)
	}
}

func TestRunRejectsNilJobParts(t *testing.T) {
	s := fig4Stack(t, 10)
	jobs := Batch{}.
		Add("no model", s, nil).
		Add("no stack", nil, core.Model1D{})
	outs, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range outs {
		if oc.Err == nil {
			t.Errorf("job %d with nil part accepted", i)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs Batch
	for i := 0; i < 16; i++ {
		jobs = jobs.Add("", fig4Stack(t, 10), core.Model1D{})
	}
	outs, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	for i, oc := range outs {
		if oc.Result == nil && oc.Err == nil {
			t.Errorf("job %d has neither result nor error after cancellation", i)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	outs, err := Run(context.Background(), nil, Options{})
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: outs=%v err=%v", outs, err)
	}
}

// TestEachCoversRangeOnce: Each calls do exactly once per index of its
// range for any worker request, and one worker sees the indices in order.
func TestEachCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		var mu sync.Mutex
		var got []int
		Each(context.Background(), workers, 5, 12, func(i int) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
		if workers != 1 {
			slices.Sort(got)
		}
		if want := []int{5, 6, 7, 8, 9, 10, 11}; !slices.Equal(got, want) {
			t.Errorf("workers=%d: do saw %v, want %v", workers, got, want)
		}
	}
	if w := Workers(100, 3); w != 3 {
		t.Errorf("Workers(100, 3) = %d, want one per task", w)
	}
	if w := Workers(0, 1<<20); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 1<<20) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

func TestCacheHits(t *testing.T) {
	s := fig4Stack(t, 10)
	m := core.Model1D{}
	cache := NewCache()
	jobs := Batch{}.Add("a", s, m).Add("b", s, m).Add("c", s, m)
	outs, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	hits, misses, _ := cache.Counters()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if outs[0].FromCache || !outs[1].FromCache || !outs[2].FromCache {
		t.Errorf("cached flags wrong: %v %v %v", outs[0].FromCache, outs[1].FromCache, outs[2].FromCache)
	}
	for i := 1; i < 3; i++ {
		if outs[i].Result != outs[0].Result {
			t.Errorf("job %d did not reuse the cached result", i)
		}
	}
}

// TestCacheHitKeepsOriginalSolve: a batch re-run on a shared Cache solves
// nothing, and each hit reports the first run's Runtime and Solver stats.
func TestCacheHitKeepsOriginalSolve(t *testing.T) {
	jobs := reuseJobs(t, 3)
	cache := NewCache()
	first, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	solved := obs.Default().Counter("sweep.jobs")
	before := solved.Value()
	second, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if n := solved.Value() - before; n != 0 {
		t.Errorf("re-run on a shared cache counted %d sweep.jobs, want 0", n)
	}
	for i, oc := range second {
		f := first[i]
		if oc.Err != nil || f.Err != nil {
			t.Fatalf("job %d: %v / %v", i, f.Err, oc.Err)
		}
		if f.FromCache || !oc.FromCache {
			t.Errorf("job %d: FromCache %v then %v, want false then true", i, f.FromCache, oc.FromCache)
		}
		if oc.Runtime != f.Runtime || oc.Runtime <= 0 {
			t.Errorf("job %d: hit Runtime %v, original %v", i, oc.Runtime, f.Runtime)
		}
		if oc.Result.Solver != f.Result.Solver || !oc.Result.Solver.Direct {
			t.Errorf("job %d: hit Solver %+v, original %+v", i, oc.Result.Solver, f.Result.Solver)
		}
	}
}

// interruptModel cancels its sweep from inside the solve when interrupt is
// set, the way a caller's cancellation lands mid-solve, and then stops when
// its own context ends, as a solver notices cancellation between
// iterations; otherwise it solves. The state is package-level because the
// cache key encodes the model's fields.
type interruptModel struct{}

var interrupt context.CancelFunc

func (interruptModel) Name() string { return "interrupt" }
func (m interruptModel) Solve(s *stack.Stack) (*core.Result, error) {
	return m.SolveCtx(context.Background(), s)
}
func (interruptModel) SolveCtx(ctx context.Context, _ *stack.Stack) (*core.Result, error) {
	if interrupt != nil {
		interrupt()
		<-ctx.Done()
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	return &core.Result{MaxDT: 1}, nil
}

// TestCacheSkipsCancelledSolves: a point cancelled mid-solve is not an
// outcome, so a later run on the same Cache under a live context solves it
// instead of replaying the cancellation.
func TestCacheSkipsCancelledSolves(t *testing.T) {
	s := fig4Stack(t, 10)
	cache := NewCache()
	jobs := Batch{}.Add("p", s, interruptModel{})
	ctx, cancel := context.WithCancel(context.Background())
	interrupt = cancel
	outs, err := Run(ctx, jobs, Options{Workers: 1, Cache: cache})
	interrupt = nil
	if !errors.Is(err, context.Canceled) || !errors.Is(outs[0].Err, context.Canceled) {
		t.Fatalf("interrupted run: %v / %v, want context.Canceled", err, outs[0].Err)
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after a cancelled solve, want 0", cache.Len())
	}
	outs, err = Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if oc := outs[0]; oc.Err != nil || oc.FromCache || oc.Result.MaxDT != 1 {
		t.Errorf("re-run after cancellation: err %v, FromCache %v, want a fresh solve", oc.Err, oc.FromCache)
	}
}

func TestCacheDistinguishesModelsAndStacks(t *testing.T) {
	cache := NewCache()
	jobs := Batch{}.
		Add("", fig4Stack(t, 10), core.Model1D{}).
		Add("", fig4Stack(t, 20), core.Model1D{}).
		Add("", fig4Stack(t, 10), core.NewModelB(10))
	if _, err := Run(context.Background(), jobs, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("distinct jobs collided: cache holds %d entries, want 3", cache.Len())
	}
}

func TestCacheStoresFailuresWithPerJobLabels(t *testing.T) {
	s := fig4Stack(t, 10)
	cache := NewCache()
	jobs := Batch{}.Add("first", s, failModel{}).Add("second", s, failModel{})
	outs, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[1].FromCache {
		t.Error("second failure was not served from cache")
	}
	if !strings.Contains(outs[0].Err.Error(), `"first"`) ||
		!strings.Contains(outs[1].Err.Error(), `"second"`) {
		t.Errorf("cached errors lost their per-job labels: %v / %v", outs[0].Err, outs[1].Err)
	}
}

func TestCachedModelWrapper(t *testing.T) {
	s := fig4Stack(t, 10)
	cache := NewCache()
	m := Cached(core.Model1D{}, cache)
	if m.Name() != (core.Model1D{}).Name() {
		t.Errorf("wrapper changed the model name to %q", m.Name())
	}
	r1, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second solve was not memoized")
	}
	if hits, _, _ := cache.Counters(); hits != 1 {
		t.Errorf("hits=%d, want 1", hits)
	}
	if Cached(core.Model1D{}, nil) == nil {
		t.Error("nil cache should return the model unwrapped, not nil")
	}
}
