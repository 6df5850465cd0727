// Package flight coalesces concurrent executions of the same key (a
// canon.Sum digest) into one,
// in the spirit of x/sync/singleflight (hand-rolled: the repository is
// stdlib-only). The solve daemon coalesces identical requests through it,
// and the sweep result cache solves each missing point through it.
package flight

import (
	"context"
	"sync"
)

// Group coalesces concurrent calls of Do under the same key. The zero value
// is ready to use; a Group must not be copied after first use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[[32]byte]*call[V]
}

// call is one execution and the callers waiting on it.
type call[V any] struct {
	done    chan struct{}
	val     V
	waiters int
	cancel  context.CancelFunc
}

// Do returns fn's value for key, joining the execution of a concurrent
// caller with the same key instead of starting a second one; shared reports
// whether this caller joined.
//
// The first caller starts fn on its own goroutine under a context that
// keeps the caller's values (its tracer and span parent) but not its
// cancellation or deadline. Every caller waits on its own ctx and, when it
// ends first, leaves alone with ctx.Err(). When the last caller leaves, the
// execution's context is cancelled and the key retired, so a later caller
// starts afresh: no caller receives a value cancelled under another
// caller's context. An execution every caller left runs until fn returns,
// so fn should return soon after its context ends. fn must not panic.
func (g *Group[V]) Do(ctx context.Context, key [32]byte, fn func(context.Context) V) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[[32]byte]*call[V])
	}
	c, shared := g.m[key]
	if !shared {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call[V]{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		go func() {
			c.val = fn(fctx)
			cancel()
			g.mu.Lock()
			g.retire(key, c)
			g.mu.Unlock()
			close(c.done)
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, shared, nil
	case <-ctx.Done():
		g.mu.Lock()
		if c.waiters--; c.waiters == 0 {
			c.cancel()
			g.retire(key, c)
		}
		g.mu.Unlock()
		return v, shared, ctx.Err()
	}
}

// Waiters reports how many callers wait on key's execution, zero when none
// runs.
func (g *Group[V]) Waiters(key [32]byte) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.waiters
	}
	return 0
}

// retire removes c from the group if it still holds key. The caller holds
// g.mu.
func (g *Group[V]) retire(key [32]byte, c *call[V]) {
	if g.m[key] == c {
		delete(g.m, key)
	}
}
