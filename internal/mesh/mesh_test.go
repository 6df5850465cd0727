package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	e, err := Uniform(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(e[i]-want[i]) > 1e-15 {
			t.Fatalf("edges = %v", e)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Uniform(1, 1, 3); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := Uniform(2, 1, 3); err == nil {
		t.Error("reversed interval accepted")
	}
}

// graded is Line over one interval [lo, hi] of n cells at ratio.
func graded(lo, hi float64, n int, ratio float64) ([]float64, error) {
	return Line(lo, []Interval{{Hi: hi, Cells: n, Ratio: ratio}})
}

func TestGradedGeometricWidths(t *testing.T) {
	e, err := graded(0, 15, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Widths 1, 2, 4, 8 sum to 15.
	widths := []float64{1, 2, 4, 8}
	for i, w := range widths {
		if got := e[i+1] - e[i]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("width %d = %g, want %g (edges %v)", i, got, w, e)
		}
	}
	if e[4] != 15 {
		t.Fatalf("last edge %g", e[4])
	}
}

func TestGradedRatioOneIsUniform(t *testing.T) {
	u, _ := Uniform(0, 1, 5)
	for _, ratio := range []float64{0, 1} {
		e, err := graded(0, 1, 5, ratio)
		if err != nil {
			t.Fatal(err)
		}
		for i := range u {
			if e[i] != u[i] {
				t.Fatalf("ratio %g: %v, want uniform %v", ratio, e, u)
			}
		}
	}
}

func TestGradedShrinking(t *testing.T) {
	e, err := graded(0, 1, 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(e); i++ {
		w1 := e[i-1] - e[i-2]
		w2 := e[i] - e[i-1]
		if w2 >= w1 {
			t.Fatalf("widths not shrinking: %v", e)
		}
	}
}

func TestGradedErrors(t *testing.T) {
	if _, err := graded(0, 1, 3, -1); err == nil {
		t.Error("negative ratio accepted")
	}
	if _, err := graded(0, 1, 0, 2); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := graded(0, 1, 3, math.Inf(1)); err == nil {
		t.Error("infinite ratio accepted")
	}
	if _, err := graded(0, 1, 3, math.NaN()); err == nil {
		t.Error("NaN ratio accepted")
	}
	if _, err := Line(0, []Interval{{Hi: 1, Cells: 2}, {Hi: 1, Cells: 2}}); err == nil {
		t.Error("empty second interval accepted")
	}
}

// oldLine is Line as it was built before it appended in place: each
// interval a separate Uniform or geometric slice, its edges after the first
// appended onto a slice grown from the origin.
func oldLine(origin float64, intervals []Interval) []float64 {
	edges := []float64{origin}
	lo := origin
	for _, iv := range intervals {
		n := iv.Cells
		e := make([]float64, n+1)
		if iv.Ratio == 0 || iv.Ratio == 1 {
			for i := 0; i <= n; i++ {
				e[i] = lo + (iv.Hi-lo)*float64(i)/float64(n)
			}
		} else {
			w := (iv.Hi - lo) * (iv.Ratio - 1) / (math.Pow(iv.Ratio, float64(n)) - 1)
			e[0] = lo
			width := w
			for i := 1; i <= n; i++ {
				e[i] = e[i-1] + width
				width *= iv.Ratio
			}
		}
		e[n] = iv.Hi
		edges = append(edges, e[1:]...)
		lo = iv.Hi
	}
	return edges
}

// TestLineMatchesConcatenation: over random interval lists, uniform and
// graded, Line's edges carry exactly the bits of the per-interval
// concatenation it replaced, so no mesh built from them moves.
func TestLineMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ratios := []float64{0, 1, 1.2, 0.75, math.Sqrt(0.75), Regrade(1.2, 4)}
	for trial := range 500 {
		origin := rng.NormFloat64() * 1e-4
		intervals := make([]Interval, 1+rng.Intn(6))
		hi := origin
		for i := range intervals {
			hi += (0.01 + rng.Float64()) * math.Pow(10, -float64(rng.Intn(7)))
			intervals[i] = Interval{Hi: hi, Cells: 1 + rng.Intn(40), Ratio: ratios[rng.Intn(len(ratios))]}
			if rng.Intn(4) == 0 {
				intervals[i].Ratio = 0.3 + 2*rng.Float64()
			}
		}
		got, err := Line(origin, intervals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := oldLine(origin, intervals)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("trial %d: %d edges (capacity %d), want %d", trial, len(got), cap(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: edge %d = %v, want %v bit for bit", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLineCompositeSharedEdges(t *testing.T) {
	e, err := Line(0, []Interval{
		{Hi: 1, Cells: 2},
		{Hi: 3, Cells: 4, Ratio: 1.5},
		{Hi: 3.5, Cells: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(e); err != nil {
		t.Fatal(err)
	}
	if len(e) != 2+4+1+1 {
		t.Fatalf("edge count = %d (%v)", len(e), e)
	}
	// Interface edges present exactly.
	found1, found3 := false, false
	for _, x := range e {
		if x == 1 {
			found1 = true
		}
		if x == 3 {
			found3 = true
		}
	}
	if !found1 || !found3 {
		t.Fatalf("interval boundaries not in edges: %v", e)
	}
	if e[len(e)-1] != 3.5 {
		t.Fatalf("last edge %g", e[len(e)-1])
	}
}

func TestLineErrors(t *testing.T) {
	if _, err := Line(0, nil); err == nil {
		t.Error("empty interval list accepted")
	}
	if _, err := Line(0, []Interval{{Hi: -1, Cells: 2}}); err == nil {
		t.Error("backwards interval accepted")
	}
}

func TestCenters(t *testing.T) {
	c := Centers([]float64{0, 1, 3})
	if len(c) != 2 || c[0] != 0.5 || c[1] != 2 {
		t.Fatalf("Centers = %v", c)
	}
	if Centers([]float64{1}) != nil {
		t.Error("degenerate input not nil")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]float64{0, 1, 2}); err != nil {
		t.Errorf("valid edges rejected: %v", err)
	}
	if err := Validate([]float64{0, 1, 1}); err == nil {
		t.Error("repeated edge accepted")
	}
	if err := Validate([]float64{0, 2, 1}); err == nil {
		t.Error("decreasing edges accepted")
	}
	if err := Validate([]float64{0}); err == nil {
		t.Error("single edge accepted")
	}
}

func TestGradedTotalLengthProperty(t *testing.T) {
	f := func(seedN uint8, seedR uint8) bool {
		n := 1 + int(seedN)%20
		ratio := 0.3 + float64(seedR)/64.0
		e, err := graded(2, 7, n, ratio)
		if err != nil {
			return false
		}
		if len(e) != n+1 || e[0] != 2 || e[n] != 7 {
			return false
		}
		return Validate(e) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLayers: the bulk gets its count graded finer towards its top, a layer
// thinner than thinLayer the thin count, every other layer perLayer, and
// every layer top is an edge.
func TestLayers(t *testing.T) {
	tops := []float64{100e-6, 101e-6, 121e-6, 123.5e-6}
	e, err := Layers(tops, 4, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 + 2 + 4 + 4 + 1; len(e) != want {
		t.Fatalf("%d edges, want %d", len(e), want)
	}
	for i, at := range []int{5, 7, 11, 15} {
		if e[at] != tops[i] {
			t.Errorf("edge %d = %g, want layer top %g", at, e[at], tops[i])
		}
	}
	for i := 1; i < 5; i++ {
		if w, prev := e[i+1]-e[i], e[i]-e[i-1]; math.Abs(w/prev-0.75) > 1e-9 {
			t.Errorf("bulk cell %d is %g of the one below, want 0.75", i, w/prev)
		}
	}
	fine, err := Layers(tops, 8, 4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine)-1 != 2*(len(e)-1) {
		t.Errorf("refined mesh has %d cells, want twice %d", len(fine)-1, len(e)-1)
	}
	if r := (fine[2] - fine[1]) / (fine[1] - fine[0]); math.Abs(r-math.Sqrt(0.75)) > 1e-9 {
		t.Errorf("refined bulk ratio %g, want sqrt(0.75)", r)
	}
	if _, err := Layers(tops, 0, 2, 5, 1); err == nil {
		t.Error("zero cells per layer accepted")
	}
}

func TestRegrade(t *testing.T) {
	if got := Regrade(1.2, 1); got != 1.2 {
		t.Errorf("Regrade(1.2, 1) = %g", got)
	}
	if got := Regrade(1.2, 0); got != 1.2 {
		t.Errorf("Regrade(1.2, 0) = %g", got)
	}
	if got := Regrade(1.2, 4); math.Abs(math.Pow(got, 4)-1.2) > 1e-12 {
		t.Errorf("Regrade(1.2, 4)^4 = %g, want 1.2", math.Pow(got, 4))
	}
}
