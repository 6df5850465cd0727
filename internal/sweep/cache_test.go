package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/stack"
)

// keyModel is a minimal model whose fields participate in the cache key.
type keyModel struct {
	A, B string
}

func (keyModel) Name() string                             { return "key-probe" }
func (keyModel) Solve(*stack.Stack) (*core.Result, error) { return &core.Result{}, nil }

// TestCacheKeyDistinguishesCollidingRenderings: under %+v the two models
// below both render `{A:a B:b B:c}`, silently aliasing distinct
// configurations to one cache slot. The canonical %#v key quotes strings,
// so they must fingerprint differently.
func TestCacheKeyDistinguishesCollidingRenderings(t *testing.T) {
	s := fig4Stack(t, 10)
	m1 := keyModel{A: "a B:b", B: "c"}
	m2 := keyModel{A: "a", B: "b B:c"}
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatalf("probe models no longer collide under %%+v; rebuild the test inputs")
	}
	k1, k2 := cacheKey(m1, s), cacheKey(m2, s)
	if k1 == k2 {
		t.Fatalf("colliding renderings share a cache key %x", k1)
	}
}

// TestCacheKeyDistinguishesNaNField: stacks that differ only in a field one
// of which is NaN must not share a key (a NaN-valued geometry is degenerate,
// but it must never alias a valid one).
func TestCacheKeyDistinguishesNaNField(t *testing.T) {
	a := fig4Stack(t, 10)
	b := *a
	b.Footprint = math.NaN()
	m := core.Model1D{}
	if cacheKey(m, a) == cacheKey(m, &b) {
		t.Fatal("NaN-differing stacks share a cache key")
	}
	// Two stacks with the same NaN field are the same point and may share.
	c := *a
	c.Footprint = math.NaN()
	if cacheKey(m, &b) != cacheKey(m, &c) {
		t.Fatal("identical NaN stacks got distinct keys")
	}
}

// cacheOf returns an empty cache bounded at capacity entries instead of
// DefaultCacheCapacity.
func cacheOf(capacity int) *Cache {
	c := NewCache()
	c.capacity = capacity
	return c
}

// TestCacheLRUEviction fills a cache shrunk to capacity 2 with three points
// and asserts the least-recently-used entry is the one that left.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache()
	if c.capacity != DefaultCacheCapacity {
		t.Errorf("NewCache capacity = %d, want %d", c.capacity, DefaultCacheCapacity)
	}
	c = cacheOf(2)
	r := &core.Result{}
	k1, k2, k3 := [32]byte{1}, [32]byte{2}, [32]byte{3}
	c.store(&cacheEntry{key: k1, res: r})
	c.store(&cacheEntry{key: k2, res: r})
	// Touch k1 so k2 becomes the LRU entry.
	if _, ok := c.lookup(k1); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.store(&cacheEntry{key: k3, res: r})
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if _, ok := c.lookup(k2); ok {
		t.Error("LRU entry k2 survived eviction")
	}
	if _, ok := c.lookup(k1); !ok {
		t.Error("recently-used k1 was evicted")
	}
	if _, ok := c.lookup(k3); !ok {
		t.Error("newest entry k3 was evicted")
	}
	_, _, evictions := c.Counters()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
}

// TestCacheStoreIdempotentUnderRace: two workers racing to store the same
// key must leave one entry and no leaked list nodes.
func TestCacheStoreIdempotentUnderRace(t *testing.T) {
	c := NewCache()
	r := &core.Result{}
	c.store(&cacheEntry{key: [32]byte{'k'}, res: r})
	c.store(&cacheEntry{key: [32]byte{'k'}, res: r})
	if c.Len() != 1 {
		t.Fatalf("duplicate store left %d entries", c.Len())
	}
	if c.order.Len() != 1 {
		t.Fatalf("duplicate store leaked list nodes: %d", c.order.Len())
	}
}

// TestCacheHitAllocs: a warm hit on a Fig. 4 reference point hashes its key
// in canon's pooled buffer and builds no string of the ~1.7 KB encoding.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	s := fig4Stack(t, 10)
	c := NewCache()
	m := Cached(fem.ReferenceModel{}, c)
	if _, err := m.Solve(s); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := m.Solve(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / runs; perHit >= 256 {
		t.Errorf("a warm hit allocates %d B, want under 256", perHit)
	}
	if hits, misses, _ := c.Counters(); hits != runs || misses != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, runs)
	}
}

// countingModel counts its solves and holds each one until countRelease
// closes. The state is package-level because the cache key encodes the
// model's fields.
type countingModel struct{}

var (
	countSolves  atomic.Int32
	countRelease chan struct{}
)

func (countingModel) Name() string { return "counting" }
func (countingModel) Solve(*stack.Stack) (*core.Result, error) {
	countSolves.Add(1)
	<-countRelease
	return &core.Result{MaxDT: 1}, nil
}

// TestCachedSolvesEachPointOnce: callers asking for a point another caller
// is still solving wait for it instead of solving it again, so a shared
// cache reports one miss per distinct point however the callers interleave.
func TestCachedSolvesEachPointOnce(t *testing.T) {
	s := fig4Stack(t, 10)
	countSolves.Store(0)
	countRelease = make(chan struct{})
	c := NewCache()
	m := Cached(countingModel{}, c)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, callers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := m.Solve(s)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	for countSolves.Load() == 0 {
		runtime.Gosched()
	}
	close(countRelease)
	wg.Wait()
	if n := countSolves.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d solves, want 1", callers, n)
	}
	hits, misses, _ := c.Counters()
	if misses != 1 || hits != callers-1 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d, want %d/1/1", hits, misses, c.Len(), callers-1)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}
