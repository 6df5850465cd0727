package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// recorder collects the raw per-op samples of one timed phase. Percentiles
// are computed from these samples, never from the program's power-of-two
// obs histograms, whose buckets are far coarser than the benchmark's bounds.
// It is safe for concurrent use: serve clients complete requests on
// several goroutines.
type recorder struct {
	limit time.Duration // latency limit an op must meet to count as goodput
	procs int           // GOMAXPROCS the phase ran with

	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    int
	good      int
	heapLive  []float64 // samples, every millisecond and after each op
	heap      []metrics.Sample

	start, end time.Time
	startMem   runtime.MemStats
	endMem     runtime.MemStats
	startCPU   cpuSample
	endCPU     cpuSample
}

func newRecorder(limit time.Duration) *recorder {
	return &recorder{
		limit: limit,
		heap:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// begin opens the timed phase and starts a sampler that reads the live heap
// every millisecond until stop is closed, so ops longer than a GC cycle
// still see their peak.
func (r *recorder) begin(stop <-chan struct{}) *sync.WaitGroup {
	runtime.ReadMemStats(&r.startMem)
	r.startCPU = readCPU()
	r.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.sampleHeap()
			}
		}
	}()
	return &wg
}

// finish closes the timed phase.
func (r *recorder) finish() {
	r.end = time.Now()
	r.endCPU = readCPU()
	runtime.ReadMemStats(&r.endMem)
}

// sampleHeap records the live heap: the bytes the most recent GC marked
// reachable. It leaves out the garbage awaiting the next collection, whose
// amount grows with the ops a run completes between collections: a run of
// `warm`, which collects no garbage while timed, would otherwise hold more
// the faster the host ran it.
func (r *recorder) sampleHeap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.heap)
	r.heapLive = append(r.heapLive, float64(r.heap[0].Value.Uint64()))
}

// peakHeap is the 95th percentile of the live-heap samples: the most the
// program held, without the few highest marks, whose size depends on when
// in an op a collection happened to run. Above p95 one such mark moved a
// `fresh` run's value by up to half, and a `paper` run's 2 MB by 5%.
func (r *recorder) peakHeap() float64 {
	s := append([]float64(nil), r.heapLive...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[min(len(s)-1, int(0.95*float64(len(s))))]
}

// done records one completed op: its latency, and err when the op failed or
// its output check did.
func (r *recorder) done(lat time.Duration, err error) {
	r.sampleHeap()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.lat = append(r.lat, lat)
	if err != nil {
		r.failed++
		logf("op failed: %v", err)
		return
	}
	if lat <= r.limit {
		r.good++
	}
}

// failOp marks op i, recorded by done as passing, as failed by a check
// that ran after the timed phase.
func (r *recorder) failOp(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.lat[i] <= r.limit {
		r.good--
	}
	logf("op %d failed a deferred check: %v", i, err)
}

func (r *recorder) wall() time.Duration { return r.end.Sub(r.start) }

func (r *recorder) allocPerOp() float64 {
	return float64(r.endMem.TotalAlloc-r.startMem.TotalAlloc) / float64(max(r.attempted, 1))
}

func (r *recorder) gcCyclesPerOp() float64 {
	return float64(r.endMem.NumGC-r.startMem.NumGC) / float64(max(r.attempted, 1))
}

// gcCPUFrac is the share of the CPU time the process used that went to the
// garbage collector.
func (r *recorder) gcCPUFrac() float64 {
	used := r.endCPU.used - r.startCPU.used
	if used <= 0 {
		return 0
	}
	return (r.endCPU.gc - r.startCPU.gc) / used
}

// cpuSample is the runtime's estimate of the CPU time the process used
// (available minus idle) and spent in the garbage collector.
type cpuSample struct{ used, gc float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{used: s[0].Value.Float64() - s[1].Value.Float64(), gc: s[2].Value.Float64()}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples in milliseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return ms(s[min(max(k, 0), len(s)-1)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float samples (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
