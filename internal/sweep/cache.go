package sweep

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/stack"
)

// DefaultCacheCapacity bounds every Cache: generous enough that every sweep
// and planning run in this repository fits with room to spare, small enough
// that a long-lived process hammering the solve path (a design-planning loop
// bisecting across a large floorplan) cannot hold every point it ever
// solved.
const DefaultCacheCapacity = 1 << 16

// Cache memoizes solve results keyed on the canon.Sum digest of the model
// and the stack, the key ttsvd's coalescing and the journals' fingerprint
// use too: like them, it trusts SHA-256 equality for encoding equality.
// Planning loops (plan.Plan bisections, calibration, design-space search)
// revisit identical (stack, model) points constantly; with a cache those
// repeats cost a map lookup instead of a solve.
//
// The cache holds at most DefaultCacheCapacity entries and evicts
// least-recently-used ones beyond it; Counters reports how many lookups
// hit, missed and how many entries were evicted, and the same counts feed
// the obs default registry as sweep.cache.{hits,misses,evictions}.
//
// A hit reports the wall time of the solve that produced it (see
// Outcome.Runtime) and its Result carries that solve's Solver stats.
//
// A Cache is safe for concurrent use, and every caller through it (Run with
// Options.Cache, a Cached model) solves each point once: a caller asking
// for a point that is still being solved joins that solve and counts as a
// hit. A caller waits on its own context and leaves alone when it ends; the
// solve stops only when no caller waits on it, and a cancelled solve is not
// stored. Cached *core.Result values are shared between all callers and
// must be treated as read-only.
type Cache struct {
	mu        sync.Mutex
	capacity  int // DefaultCacheCapacity; tests shrink it
	entries   map[[32]byte]*list.Element
	order     *list.List // front = most recently used
	flights   flight.Group[*cacheEntry]
	hits      int
	misses    int
	evictions int
}

// cacheEntry is one memoized outcome: the solve's result or raw error and
// the wall time it took, which a hit reports as its own. Entries are never
// mutated once stored.
type cacheEntry struct {
	key     [32]byte
	res     *core.Result
	err     error
	runtime time.Duration
}

// NewCache returns an empty cache bounded at DefaultCacheCapacity entries.
func NewCache() *Cache {
	return &Cache{
		capacity: DefaultCacheCapacity,
		entries:  make(map[[32]byte]*list.Element),
		order:    list.New(),
	}
}

// lookup returns the cached outcome for key and marks it most recently
// used.
func (c *Cache) lookup(key [32]byte) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// count records one hit or one miss.
func (c *Cache) count(hit bool) {
	c.mu.Lock()
	name := "sweep.cache.misses"
	if hit {
		c.hits++
		name = "sweep.cache.hits"
	} else {
		c.misses++
	}
	c.mu.Unlock()
	obs.Default().Counter(name).Inc()
}

// store records an outcome, failures included, so repeatedly-invalid
// geometries fail fast, and evicts the least-recently-used entry when the
// capacity is exceeded. A cancelled solve is not an outcome of its point
// and is not stored, the rule the journal follows.
func (c *Cache) store(e *cacheEntry) {
	if isCancellation(e.err) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		// Concurrent workers may race to solve the same point; keep one.
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		obs.Default().Counter("sweep.cache.evictions").Inc()
	}
}

// Len returns the number of distinct memoized points.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters reports the lookup hit/miss totals and the number of entries
// evicted by the capacity bound since creation.
func (c *Cache) Counters() (hits, misses, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// cacheKey is the digest of a (model, stack) pair's canonical encoding.
// Unlike a %#v rendering, the encoding never prints pointer addresses (a
// model gaining a pointer or map field keeps deduplicating instead of
// silently keying every solve apart) and is stable across processes. A
// lookup hashes the encoding in a pooled buffer, so it builds no string.
func cacheKey(m core.Model, s *stack.Stack) [32]byte {
	return canon.Sum(m, s)
}

// Cached wraps a model so every solve is memoized in c. The wrapper
// preserves the model's name, making it a drop-in replacement anywhere a
// core.Model is consumed (e.g. plan.Plan, which re-solves identical tiles),
// and implements core.ContextSolver whatever the model does.
func Cached(m core.Model, c *Cache) core.Model {
	if c == nil {
		return m
	}
	return cachedModel{m: m, c: c}
}

type cachedModel struct {
	m core.Model
	c *Cache
}

// Name implements core.Model.
func (cm cachedModel) Name() string { return cm.m.Name() }

// Solve implements core.Model with memoization. Returned results are shared
// and must be treated as read-only.
func (cm cachedModel) Solve(s *stack.Stack) (*core.Result, error) {
	return cm.SolveCtx(context.Background(), s)
}

// SolveCtx implements core.ContextSolver: Solve that returns ctx.Err() as
// soon as ctx ends, leaving the point's solve to any other caller waiting
// on it.
func (cm cachedModel) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	e, _, err := cm.c.do(ctx, cm.m, s)
	if err != nil {
		return nil, err
	}
	return e.res, e.err
}

// do returns the outcome of solving s with m and whether it came from the
// cache: the stored entry (a hit), or the entry of the one solve that runs
// the point while any caller waits on it. The solve counts the miss; a
// caller that joins it counts a hit. A caller whose ctx ends first gets
// ctx.Err() and no entry. The solve stores its outcome before the flight
// ends, so a caller arriving later finds it. A nil Cache just solves.
func (c *Cache) do(ctx context.Context, m core.Model, s *stack.Stack) (cacheEntry, bool, error) {
	if c == nil {
		return timedSolve(ctx, [32]byte{}, m, s), false, nil
	}
	key := cacheKey(m, s)
	if e, ok := c.lookup(key); ok {
		c.count(true)
		return *e, true, nil
	}
	var solved *cacheEntry
	e, _, err := c.flights.Do(ctx, key, func(ctx context.Context) *cacheEntry {
		if e, ok := c.lookup(key); ok {
			return e // stored by a flight that ended after the lookup above
		}
		c.count(false)
		e := timedSolve(ctx, key, m, s)
		solved = &e
		c.store(solved)
		return solved
	})
	if err != nil {
		return cacheEntry{}, false, err
	}
	if e != solved {
		c.count(true)
	}
	return *e, e != solved, nil
}

// timedSolve solves s with m into an entry keyed key, timing the solve.
func timedSolve(ctx context.Context, key [32]byte, m core.Model, s *stack.Stack) cacheEntry {
	t0 := time.Now()
	res, err := solve(ctx, m, s)
	return cacheEntry{key: key, res: res, err: err, runtime: time.Since(t0)}
}
