// Package obs is the repository's zero-dependency observability layer: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms
// with atomic hot paths), lightweight span tracing exporting NDJSON, and a
// pprof endpoint helper. The solver stack (internal/sparse, internal/mg,
// internal/fem), the batch engines (internal/sweep, internal/plan) and the
// top-level workloads record into the package default registry; ttsv.Metrics
// snapshots it and the CLIs dump it behind -metrics.
//
// Every handle type is nil-safe: methods on a nil *Registry return nil
// metrics, and methods on nil metrics are no-ops. Disabling instrumentation
// (SetDefault(nil)) therefore reduces every record site to a nil check — the
// deterministic-solve guarantees and benchmark numbers of the solver stack
// are untouched, because recording never influences control flow or
// floating-point work.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (e.g. solves performed,
// cache hits). The zero value is ready to use; a nil Counter discards adds.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways (e.g. busy workers, hierarchy
// depth of the last build). The zero value reads 0; a nil Gauge discards
// updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (atomically, via compare-and-swap).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket; one implicit overflow bucket catches
// everything above the last bound. Observations and reads are lock-free;
// a nil Histogram discards observations.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last = overflow
	sumBits atomic.Uint64
	n       atomic.Int64
}

// NewHistogram returns a histogram over the given strictly increasing
// bucket bounds. Most callers want Registry.Histogram instead, which
// registers the histogram under a name.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n bounds growing geometrically from start by factor —
// the natural shape for iteration counts, wall times and residuals, whose
// interesting range spans decades.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. Metrics are created on first
// use and live for the registry's lifetime; handles may be cached by
// callers. All methods are safe for concurrent use, and every method on a
// nil *Registry returns a nil (no-op) handle, which is the disabled fast
// path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it over bounds if needed.
// An existing histogram keeps its original bounds; bounds of later calls
// are ignored, so every call site can pass its preferred layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations.
	Count int64
	Sum   float64
	// Bounds are the bucket upper edges; Counts has one extra overflow
	// entry for observations above the last bound.
	Bounds []float64
	Counts []int64
}

// Mean returns Sum/Count (0 for an empty histogram).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// attributing each bucket's mass to its upper bound — a conservative
// estimate good enough for dashboards and tests.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return math.Inf(1) // overflow bucket
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, safe to read and
// serialize while recording continues.
type Snapshot struct {
	// Counters, Gauges and Histograms map metric name to frozen value.
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot freezes the registry's current state. A nil registry snapshots
// empty (non-nil) maps, so callers can index without guards.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// String renders the snapshot as sorted, one-metric-per-line text — the
// format the CLIs dump behind -metrics.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter   %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge     %-40s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram %-40s count=%d sum=%.6g mean=%.6g p50=%.3g p95=%.3g\n",
			name, h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.95))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// def is the package default registry, enabled at start. SetDefault(nil)
// disables recording globally (the nil fast path); SetDefault(NewRegistry())
// starts a fresh collection.
var def atomic.Pointer[Registry]

func init() {
	def.Store(NewRegistry())
}

// Default returns the process-wide default registry all instrumented
// packages record into, or nil when disabled via SetDefault(nil).
func Default() *Registry {
	return def.Load()
}

// SetDefault replaces the default registry. Passing nil disables recording
// globally: every instrumented site then takes its nil fast path.
func SetDefault(r *Registry) {
	def.Store(r)
}
