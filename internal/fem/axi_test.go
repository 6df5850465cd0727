package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

func uniformAxiProblem(t *testing.T, nr, nz int, k, q float64) *AxiProblem {
	t.Helper()
	r, err := mesh.Uniform(0, 1e-3, nr)
	if err != nil {
		t.Fatal(err)
	}
	z, err := mesh.Uniform(0, 2e-3, nz)
	if err != nil {
		t.Fatal(err)
	}
	return &AxiProblem{
		REdges: r,
		ZEdges: z,
		K:      func(_, _ float64) float64 { return k },
		Q:      func(_, _ float64) float64 { return q },
		Bottom: Fixed(0),
		Top:    Insulated(),
		Outer:  Insulated(),
	}
}

func TestAxiUniformSlabWithSource(t *testing.T) {
	// 1-D analytic solution for a slab of height H with uniform source q,
	// bottom at 0 and top adiabatic: T(z) = (q/k)(H z - z²/2).
	const k, q, h = 2.5, 1e6, 2e-3
	p := uniformAxiProblem(t, 4, 60, k, q)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for j, z := range sol.ZCenters {
		want := q / k * (h*z - z*z/2)
		for i := range sol.T[j] {
			if math.Abs(sol.T[j][i]-want) > 1e-3*q/k*h*h {
				t.Fatalf("T(z=%g) = %g, want %g", z, sol.T[j][i], want)
			}
		}
	}
	tmax, _, zAt := sol.MaxT()
	wantMax := q / k * h * h / 2
	if math.Abs(tmax-wantMax)/wantMax > 0.01 {
		t.Errorf("max T = %g at z=%g, want %g at top", tmax, zAt, wantMax)
	}
}

func TestAxiTwoLayerSlabSeriesResistance(t *testing.T) {
	// Heat injected in a thin top layer must cross two material slabs in
	// series: ΔT across the stack equals q_total·(t1/k1 + t2/k2)/A.
	const (
		t1, k1 = 1e-3, 100.0 // bottom layer
		t2, k2 = 0.5e-3, 2.0 // top layer
		tSrc   = 1e-5        // source sliver at the very top
		qv     = 1e9         // W/m³ in the sliver
		rOut   = 1e-3
	)
	r, _ := mesh.Uniform(0, rOut, 3)
	z, err := mesh.Line(0, []mesh.Interval{
		{Hi: t1, Cells: 40},
		{Hi: t1 + t2 - tSrc, Cells: 30},
		{Hi: t1 + t2, Cells: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &AxiProblem{
		REdges: r,
		ZEdges: z,
		K: func(_, zz float64) float64 {
			if zz < t1 {
				return k1
			}
			return k2
		},
		Q: func(_, zz float64) float64 {
			if zz > t1+t2-tSrc {
				return qv
			}
			return 0
		},
		Bottom: Fixed(0),
		Top:    Insulated(),
		Outer:  Insulated(),
	}
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	area := math.Pi * rOut * rOut
	qTot := qv * area * tSrc
	want := qTot * (t1/k1 + (t2-tSrc/2)/k2) / area
	got, _, _ := sol.MaxT()
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("two-layer ΔT = %g, want %g", got, want)
	}
}

func TestAxiRadialLogSolution(t *testing.T) {
	// Source confined to an inner cylinder r < a, outer boundary fixed,
	// top/bottom adiabatic: outside the source the solution is the classic
	// log profile T(r) = q a²/(2k) ln(R/r).
	const (
		a, rOut = 2e-4, 1.2e-3
		k       = 3.0
		qv      = 5e7
	)
	r, err := mesh.Line(0, []mesh.Interval{
		{Hi: a, Cells: 20},
		{Hi: rOut, Cells: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := mesh.Uniform(0, 1e-4, 3)
	p := &AxiProblem{
		REdges: r,
		ZEdges: z,
		K:      func(_, _ float64) float64 { return k },
		Q: func(rr, _ float64) float64 {
			if rr < a {
				return qv
			}
			return 0
		},
		Bottom: Insulated(),
		Top:    Insulated(),
		Outer:  Fixed(0),
	}
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range sol.RCenters {
		if rr <= a*1.2 {
			continue // skip the source region and its fringe
		}
		want := qv * a * a / (2 * k) * math.Log(rOut/rr)
		got := sol.T[1][i]
		scale := qv * a * a / (2 * k) * math.Log(rOut/a)
		if math.Abs(got-want) > 0.02*scale {
			t.Fatalf("radial T(%g) = %g, want %g", rr, got, want)
		}
	}
	// Centerline value: T(0) = qa²/2k·(ln(R/a) + 1/2).
	wantCenter := qv * a * a / (2 * k) * (math.Log(rOut/a) + 0.5)
	got := sol.T[1][0]
	if math.Abs(got-wantCenter)/wantCenter > 0.02 {
		t.Errorf("centerline T = %g, want %g", got, wantCenter)
	}
}

func TestAxiFluxBalance(t *testing.T) {
	p := uniformAxiProblem(t, 8, 40, 10, 2e8)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if fb := sol.FluxBalanceError(); fb > 1e-8 {
		t.Errorf("flux balance error %g", fb)
	}
	// Total source: q·π R²·H.
	want := 2e8 * math.Pi * 1e-6 * 2e-3
	if got := sol.TotalSource(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("TotalSource = %g, want %g", got, want)
	}
}

func TestAxiZeroSourceZeroField(t *testing.T) {
	p := uniformAxiProblem(t, 5, 10, 1, 0)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tmax, _, _ := sol.MaxT()
	if math.Abs(tmax) > 1e-12 {
		t.Errorf("max T = %g with no source", tmax)
	}
}

func TestAxiDirichletOffsets(t *testing.T) {
	// With no source and bottom fixed at 27, the whole field must be 27.
	p := uniformAxiProblem(t, 4, 10, 1, 0)
	p.Bottom = Fixed(27)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range sol.T {
		for i := range sol.T[j] {
			if math.Abs(sol.T[j][i]-27) > 1e-9 {
				t.Fatalf("T = %g, want 27", sol.T[j][i])
			}
		}
	}
}

func TestAxiValidation(t *testing.T) {
	good := uniformAxiProblem(t, 4, 4, 1, 0)
	bad := *good
	bad.REdges = []float64{1e-4, 2e-4} // does not start at the axis
	if _, err := SolveAxiWith(context.Background(), nil, &bad, sparse.Options{}); err == nil {
		t.Error("off-axis mesh accepted")
	}
	bad2 := *good
	bad2.K = nil
	if _, err := SolveAxiWith(context.Background(), nil, &bad2, sparse.Options{}); err == nil {
		t.Error("nil conductivity accepted")
	}
	bad3 := *good
	bad3.Bottom, bad3.Top, bad3.Outer = Insulated(), Insulated(), Insulated()
	if _, err := SolveAxiWith(context.Background(), nil, &bad3, sparse.Options{}); err == nil {
		t.Error("all-adiabatic problem accepted")
	}
	bad4 := *good
	bad4.K = func(_, _ float64) float64 { return -1 }
	if _, err := SolveAxiWith(context.Background(), nil, &bad4, sparse.Options{}); err == nil {
		t.Error("negative conductivity accepted")
	}
}

func TestBoundaryOutflowTopAndOuter(t *testing.T) {
	// Source-free problems with different Dirichlet faces: with bottom at 0
	// and top at 10 the outflow through each must balance (what goes in the
	// top leaves the bottom).
	p := uniformAxiProblem(t, 4, 20, 3, 0)
	p.Top = Fixed(10)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Net outflow = (out at bottom, positive) + (out at top, negative,
	// since heat enters there): must sum to ~0 for a source-free field.
	if out := sol.BoundaryOutflow(); math.Abs(out) > 1e-9 {
		t.Errorf("net outflow %g for source-free field", out)
	}
	// Outer Dirichlet with an interior source: everything leaves radially.
	p2 := uniformAxiProblem(t, 10, 4, 3, 5e6)
	p2.Bottom = Insulated()
	p2.Outer = Fixed(0)
	sol2, err := SolveAxiWith(context.Background(), nil, p2, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if fb := sol2.FluxBalanceError(); fb > 1e-8 {
		t.Errorf("outer-Dirichlet flux balance %g", fb)
	}
	// FluxBalanceError with zero source returns the absolute outflow.
	if fb := sol.FluxBalanceError(); fb > 1e-9 {
		t.Errorf("source-free FluxBalanceError = %g", fb)
	}
}

func solvedFig4(t *testing.T) *AxiSolution {
	t.Helper()
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestAxialProfile reads the field along the axis (the innermost cells):
// the temperature must rise monotonically with height, since heat flows
// down through the via column.
func TestAxialProfile(t *testing.T) {
	sol := solvedFig4(t)
	for j := 1; j < len(sol.T); j++ {
		if sol.T[j][0] < sol.T[j-1][0]-1e-9 {
			t.Fatalf("axial profile not monotone at %d: %g then %g", j, sol.T[j-1][0], sol.T[j][0])
		}
	}
}

// TestRadialProfile reads the top row of cells: the via region (small r)
// is cooler than the far bulk, because the via drains heat down.
func TestRadialProfile(t *testing.T) {
	sol := solvedFig4(t)
	top := sol.T[len(sol.T)-1]
	if top[0] >= top[len(top)-1] {
		t.Errorf("via not cooler than surroundings at the top: %g vs %g", top[0], top[len(top)-1])
	}
}

// TestProfilesOnAnalyticSlab checks that every row of a uniform slab's
// field is flat in r.
func TestProfilesOnAnalyticSlab(t *testing.T) {
	p := uniformAxiProblem(t, 6, 20, 5, 1e7)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sol.T {
		for i := 1; i < len(row); i++ {
			if math.Abs(row[i]-row[0]) > 1e-9*(1+math.Abs(row[0])) {
				t.Fatalf("radial profile of a uniform slab not flat: %v", row)
			}
		}
	}
}
