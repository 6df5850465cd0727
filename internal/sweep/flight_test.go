package sweep

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stack"
)

// gateModel counts its solves and holds each one until gateRelease closes
// or its context ends, counting the solves that stopped on their context.
// Its ΔT is the via radius in µm. The state is package-level because the
// cache key encodes the model's fields.
type gateModel struct{}

var (
	gateSolves  atomic.Int32
	gateStopped atomic.Int32
	gateRelease chan struct{}
)

func resetGate() {
	gateSolves.Store(0)
	gateStopped.Store(0)
	gateRelease = make(chan struct{})
}

func (gateModel) Name() string { return "gate" }
func (m gateModel) Solve(s *stack.Stack) (*core.Result, error) {
	return m.SolveCtx(context.Background(), s)
}
func (gateModel) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	release := gateRelease
	gateSolves.Add(1)
	select {
	case <-release:
		return &core.Result{MaxDT: s.Via.Radius * 1e6}, nil
	case <-ctx.Done():
		gateStopped.Add(1)
		return nil, ctx.Err()
	}
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runAsync starts Run and returns a channel that delivers its outcomes and
// error.
func runAsync(ctx context.Context, jobs Batch, c *Cache) <-chan runResult {
	ch := make(chan runResult, 1)
	go func() {
		out, err := Run(ctx, jobs, Options{Workers: len(jobs), Cache: c})
		ch <- runResult{out, err}
	}()
	return ch
}

type runResult struct {
	out []Outcome
	err error
}

// within returns r's run result, failing the test if it takes over 2 s.
func within(t *testing.T, what string, r <-chan runResult) runResult {
	t.Helper()
	select {
	case res := <-r:
		return res
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still running after 2 s", what)
		return runResult{}
	}
}

// TestConcurrentRunsSolveEachPointOnce: two batches on one Cache asking for
// the same 8 points at the same moment solve each point once. Every point
// is a miss for one batch and a hit for the other, and both get the same
// outcome.
func TestConcurrentRunsSolveEachPointOnce(t *testing.T) {
	resetGate()
	var jobs Batch
	var keys [][32]byte
	for r := 2; r < 10; r++ {
		s := fig4Stack(t, float64(r))
		jobs = jobs.Add("", s, gateModel{})
		keys = append(keys, cacheKey(gateModel{}, s))
	}
	c := NewCache()
	a, b := runAsync(context.Background(), jobs, c), runAsync(context.Background(), jobs, c)
	waitFor(t, "both batches to wait on every point", func() bool {
		for _, k := range keys {
			if c.flights.Waiters(k) != 2 {
				return false
			}
		}
		return true
	})
	close(gateRelease)
	ra, rb := within(t, "first batch", a), within(t, "second batch", b)
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if n := gateSolves.Load(); n != 8 {
		t.Errorf("two batches of the same 8 points ran %d solves, want 8", n)
	}
	if hits, misses, _ := c.Counters(); hits != 8 || misses != 8 {
		t.Errorf("hits=%d misses=%d, want 8/8", hits, misses)
	}
	for i := range jobs {
		p, q := ra.out[i], rb.out[i]
		if p.Err != nil || q.Err != nil {
			t.Fatalf("point %d: %v / %v", i, p.Err, q.Err)
		}
		if p.FromCache == q.FromCache {
			t.Errorf("point %d: FromCache %v and %v, want one solve and one hit", i, p.FromCache, q.FromCache)
		}
		if p.Result != q.Result || math.Float64bits(p.Result.MaxDT) != math.Float64bits(q.Result.MaxDT) || p.Runtime != q.Runtime {
			t.Errorf("point %d: outcomes differ: %+v / %+v", i, p, q)
		}
	}
}

// TestCacheWaiterLeavesOnItsOwnContext: a batch waiting on a point another
// batch is solving returns its own cancellation at once, and the solve goes
// on for the batch still waiting, which gets and caches its result.
func TestCacheWaiterLeavesOnItsOwnContext(t *testing.T) {
	resetGate()
	s := fig4Stack(t, 10)
	jobs := Batch{}.Add("p", s, gateModel{})
	key := cacheKey(gateModel{}, s)
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stays := runAsync(context.Background(), jobs, c)
	waitFor(t, "the solve to start", func() bool { return gateSolves.Load() == 1 })
	leaves := runAsync(ctx, jobs, c)
	waitFor(t, "both batches to wait on the point", func() bool { return c.flights.Waiters(key) == 2 })
	cancel()
	left := within(t, "cancelled batch", leaves)
	if !errors.Is(left.err, context.Canceled) || !errors.Is(left.out[0].Err, context.Canceled) {
		t.Errorf("cancelled batch: %v / %v, want context.Canceled", left.err, left.out[0].Err)
	}
	if n := c.flights.Waiters(key); n != 1 || gateStopped.Load() != 0 {
		t.Errorf("after one batch left: %d waiters, %d stopped solves; want the solve running for 1", n, gateStopped.Load())
	}
	close(gateRelease)
	stayed := within(t, "waiting batch", stays)
	if oc := stayed.out[0]; stayed.err != nil || oc.Err != nil || oc.FromCache || oc.Result.MaxDT != 10 {
		t.Fatalf("waiting batch: %v / %+v, want its own solve's result", stayed.err, oc)
	}
	if c.Len() != 1 || gateSolves.Load() != 1 || gateStopped.Load() != 0 {
		t.Errorf("cache holds %d, %d solves, %d stopped; want the one solve finished and cached", c.Len(), gateSolves.Load(), gateStopped.Load())
	}
}

// TestCacheLastWaiterStopsSolve: when the only batch waiting on a point
// leaves, its solve stops and caches nothing, and the next batch asking for
// the point solves it afresh.
func TestCacheLastWaiterStopsSolve(t *testing.T) {
	resetGate()
	s := fig4Stack(t, 10)
	jobs := Batch{}.Add("p", s, gateModel{})
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	first := runAsync(ctx, jobs, c)
	waitFor(t, "the solve to start", func() bool { return gateSolves.Load() == 1 })
	cancel()
	if r := within(t, "cancelled batch", first); !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled batch returned %v, want context.Canceled", r.err)
	}
	waitFor(t, "the abandoned solve to stop", func() bool { return gateStopped.Load() == 1 })
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after its last waiter left, want 0", c.Len())
	}
	close(gateRelease)
	r := within(t, "next batch", runAsync(context.Background(), jobs, c))
	if oc := r.out[0]; r.err != nil || oc.Err != nil || oc.FromCache || oc.Result.MaxDT != 10 {
		t.Errorf("next batch: %v / %+v, want a fresh solve", r.err, oc)
	}
	if n := gateSolves.Load(); n != 2 {
		t.Errorf("%d solves, want 2: the abandoned one and the fresh one", n)
	}
}
