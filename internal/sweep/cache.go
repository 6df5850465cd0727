package sweep

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stack"
)

// DefaultCacheCapacity bounds NewCache: generous enough that every sweep and
// planning run in this repository fits with room to spare, small enough that
// a long-lived process hammering the solve path (a design-planning loop
// bisecting across a large floorplan) cannot hold every point it ever solved.
const DefaultCacheCapacity = 1 << 16

// Cache memoizes solve results keyed on the full geometry and model
// configuration. Planning loops (plan.Plan bisections, calibration,
// design-space search) revisit identical (stack, model) points constantly;
// with a cache those repeats cost a map lookup instead of a solve.
//
// The cache holds at most its capacity and evicts least-recently-used
// entries beyond it; Counters reports how many lookups hit, missed and how
// many entries were evicted, and the same counts feed the obs default
// registry as sweep.cache.{hits,misses,evictions}.
//
// A Cache is safe for concurrent use, and a Cached model solves each point
// once: callers asking for a point that is still being solved wait for it.
// Cached *core.Result values are shared between all callers and must be
// treated as read-only.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	disk      *DiskCache // optional persistent tier behind the LRU
	inflight  map[string]*flight
	hits      int
	misses    int
	evictions int
}

type cacheEntry struct {
	key string
	res *core.Result
	err error
}

// flight is one in-progress solve of a key that Cached models are waiting on.
type flight struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// errFlightAborted is what waiters get when the solve they waited on
// panicked instead of returning.
var errFlightAborted = errors.New("sweep: the concurrent solve of this point did not finish")

// NewCache returns an empty cache bounded at DefaultCacheCapacity entries.
func NewCache() *Cache { return NewCacheSize(DefaultCacheCapacity) }

// NewCacheSize returns an empty cache holding at most capacity entries,
// evicting least-recently-used ones beyond that. capacity <= 0 means
// unbounded (the historical behavior).
func NewCacheSize(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		order:    list.New(),
	}
}

// NewCacheWithDisk returns a two-tier cache: the in-memory LRU in front of a
// persistent DiskCache. Lookups consult memory first and fall through to
// disk on a miss, promoting disk hits into memory; successful results are
// stored in both tiers, failures only in memory (see DiskCache). A nil disk
// degrades to NewCacheSize.
func NewCacheWithDisk(capacity int, disk *DiskCache) *Cache {
	c := NewCacheSize(capacity)
	c.disk = disk
	return c
}

// Disk returns the persistent tier, or nil for a memory-only cache.
func (c *Cache) Disk() *DiskCache { return c.disk }

// lookup returns the cached outcome for key, counting hit/miss and marking
// the entry most recently used. Memory misses fall through to the disk tier
// (outside the lock — disk lookups do file I/O) and promote hits.
func (c *Cache) lookup(key string) (*core.Result, error, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		obs.Default().Counter("sweep.cache.hits").Inc()
		return e.res, e.err, true
	}
	c.mu.Unlock()
	if res, ok := c.disk.lookup(key); ok {
		c.storeMem(key, res, nil)
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		obs.Default().Counter("sweep.cache.hits").Inc()
		return res, nil, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	obs.Default().Counter("sweep.cache.misses").Inc()
	return nil, nil, false
}

// store records an outcome in both tiers (failures stay memory-only).
func (c *Cache) store(key string, res *core.Result, err error) {
	c.storeMem(key, res, err)
	if err == nil {
		c.disk.store(key, res)
	}
}

// storeMem records an outcome in the in-memory LRU (including failures, so
// repeatedly-invalid geometries fail fast), evicting the least-recently-used
// entry when the capacity is exceeded.
func (c *Cache) storeMem(key string, res *core.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Concurrent workers may race to solve the same point; keep one.
		el.Value = &cacheEntry{key: key, res: res, err: err}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, err: err})
	if c.capacity > 0 && c.order.Len() > c.capacity {
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

// Capacity returns the entry bound (0 = unbounded).
func (c *Cache) Capacity() int { return c.capacity }

// Counters reports the lookup hit/miss totals and the number of entries
// evicted by the capacity bound since creation.
func (c *Cache) Counters() (hits, misses, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// cacheKey fingerprints a (model, stack) pair through the canonical
// deterministic encoder. Unlike the %#v rendering it replaces, the canonical
// form never prints pointer addresses (a model gaining a pointer or map
// field keeps deduplicating instead of silently keying every solve apart)
// and is stable across processes, so the same key space serves both this
// in-process memoization and the solve daemon's cross-request coalescing.
func cacheKey(m core.Model, s *stack.Stack) string {
	return canon.String(m, s)
}

// Cached wraps a model so every Solve is memoized in c. The wrapper
// preserves the model's name, making it a drop-in replacement anywhere a
// core.Model is consumed (e.g. plan.Plan, which re-solves identical tiles).
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
	return cm.c.do(cacheKey(cm.m, s), func() (*core.Result, error) { return cm.m.Solve(s) })
}

// do returns key's cached outcome, or runs solve for it once: a caller that
// asks for a key another caller is solving waits for that solve and counts
// as a hit, so each distinct point is solved (and missed) exactly once.
func (c *Cache) do(key string, solve func() (*core.Result, error)) (*core.Result, error) {
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		obs.Default().Counter("sweep.cache.hits").Inc()
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{}), err: errFlightAborted}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()
	if res, err, ok := c.lookup(key); ok {
		f.res, f.err = res, err
		return res, err
	}
	res, err := solve()
	c.store(key, res, err)
	f.res, f.err = res, err
	return res, err
}
