package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (NaN must be dropped)", got)
	}
	if got := h.Sum(); got != 0.5+1+5+50+5000 {
		t.Fatalf("sum = %g", got)
	}
	s := r.Snapshot().Histograms["h"]
	wantCounts := []int64{2, 1, 1, 1} // ≤1 (0.5 and 1), ≤10, ≤100, overflow
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if q := s.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10", q)
	}
	if q := s.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %g, want +Inf (overflow bucket)", q)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("x", []float64{1})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatal("nil registry snapshot returned nil maps")
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	snap := r.Snapshot()
	r.Counter("a").Add(10)
	if snap.Counters["a"] != 1 {
		t.Fatalf("snapshot moved with the registry: %d", snap.Counters["a"])
	}
	if s := snap.String(); s == "" {
		t.Fatal("empty snapshot dump")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Gauge("busy").Add(1)
				r.Histogram("lat", ExpBuckets(1e-6, 10, 8)).Observe(float64(i))
				r.Gauge("busy").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Gauge("busy").Value(); got != 0 {
		t.Fatalf("busy gauge = %g, want 0", got)
	}
	if got := r.Histogram("lat", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestDefaultSwap(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not disable")
	}
	Default().Counter("ghost").Inc() // nil fast path must not panic
	fresh := NewRegistry()
	SetDefault(fresh)
	if Default() != fresh {
		t.Fatal("SetDefault did not swap")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
}
