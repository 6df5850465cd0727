package flight

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// k is the key every test's calls share.
var k = [32]byte{'k'}

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

// TestDoCoalesces: callers that arrive while an execution runs join it and
// share its value, and only the first reports shared = false.
func TestDoCoalesces(t *testing.T) {
	const n = 8
	var g Group[int]
	release := make(chan struct{})
	var execs int
	vals := make([]int, n)
	shared := make([]bool, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], shared[i], err = g.Do(context.Background(), k, func(context.Context) int {
				execs++
				<-release
				return 42
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitFor(t, "every caller to join", func() bool { return g.Waiters(k) == n })
	close(release)
	wg.Wait()
	if execs != 1 {
		t.Errorf("%d callers ran %d executions, want 1", n, execs)
	}
	var joined int
	for i := range n {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d", i, vals[i])
		}
		if shared[i] {
			joined++
		}
	}
	if joined != n-1 {
		t.Errorf("%d callers joined, want %d", joined, n-1)
	}
	if w := g.Waiters(k); w != 0 || len(g.m) != 0 {
		t.Errorf("finished execution left %d waiters, %d keys", w, len(g.m))
	}
}

type ctxKey struct{}

// TestDoWaiterLeavesAlone: a caller whose context ends returns its own
// error at once, while the execution, under a context that keeps the first
// caller's values but not its cancellation, runs on for the caller still
// waiting.
func TestDoWaiterLeavesAlone(t *testing.T) {
	var g Group[string]
	first, cancel := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "span"))
	release := make(chan struct{})
	type result struct {
		v   string
		err error
	}
	leaver, stayer := make(chan result, 1), make(chan result, 1)
	go func() {
		v, _, err := g.Do(first, k, func(ctx context.Context) string {
			<-release
			if ctx.Err() != nil {
				return "cancelled"
			}
			return ctx.Value(ctxKey{}).(string)
		})
		leaver <- result{v, err}
	}()
	waitFor(t, "the first caller", func() bool { return g.Waiters(k) == 1 })
	go func() {
		v, _, err := g.Do(context.Background(), k, func(context.Context) string { return "second execution" })
		stayer <- result{v, err}
	}()
	waitFor(t, "the second caller", func() bool { return g.Waiters(k) == 2 })
	cancel()
	if r := <-leaver; !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled caller: %q, %v; want context.Canceled", r.v, r.err)
	}
	close(release)
	if r := <-stayer; r.err != nil || r.v != "span" {
		t.Errorf("waiting caller: %q, %v; want the first caller's value under a live context", r.v, r.err)
	}
}

// TestDoLastWaiterCancels: when the last caller leaves, the execution's
// context is cancelled and the key retired at once, so the next caller
// starts a new execution instead of joining the cancelled one.
func TestDoLastWaiterCancels(t *testing.T) {
	var g Group[string]
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, k, func(ctx context.Context) string {
			<-ctx.Done()
			close(stopped)
			return "cancelled"
		})
		errc <- err
	}()
	waitFor(t, "the caller", func() bool { return g.Waiters(k) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("execution context was not cancelled after the last caller left")
	}
	v, shared, err := g.Do(context.Background(), k, func(context.Context) string { return "fresh" })
	if v != "fresh" || shared || err != nil {
		t.Errorf("next caller: %q shared=%v err=%v, want a fresh execution", v, shared, err)
	}
}
