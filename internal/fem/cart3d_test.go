package fem

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

// solveCart solves p on a background context without a reuse context.
func solveCart(p *CartProblem, opt sparse.Options) (*CartSolution, error) {
	return SolveCartWith(context.Background(), nil, p, opt)
}

func TestCartUniformSlabWithSource(t *testing.T) {
	// Same 1-D analytic check as the axisymmetric solver: T(z) =
	// (q/k)(Hz - z²/2) for uniform source, bottom fixed, top adiabatic.
	const k, q, h = 4.0, 2e6, 1e-3
	x, _ := mesh.Uniform(0, 5e-4, 3)
	z, _ := mesh.Uniform(0, h, 50)
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return k },
		Q:      func(_, _, _ float64) float64 { return q },
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := solveCart(p, sparse.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := q / k * h * h / 2
	if got := cartMaxT(sol); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("max T = %g, want %g", got, want)
	}
	for l, zz := range sol.ZCenters {
		wantT := q / k * (h*zz - zz*zz/2)
		if got := sol.T[l][1][1]; math.Abs(got-wantT) > 0.01*want {
			t.Fatalf("T(z=%g) = %g, want %g", zz, got, wantT)
		}
	}
}

// TestCartLayeredSlabSeriesResistance is the closed-form check of the 3-D
// emitter's vertical couplings: a laterally uniform two-layer slab with a
// vertical conductivity KZ distinct from the lateral K, heated in its top
// cell plane and held at the sink below. All heat flows down through the
// cell-center-to-center resistances in series, so every cell-center
// temperature is exactly (Q/A)·R(z), with R the summed h/KZ of the cells
// below plus half the cell's own — the finite-volume discretization of a
// layered slab carries no truncation error. A vertical face that read K
// instead of KZ, or a misplaced boundary conductance, breaks the match.
func TestCartLayeredSlabSeriesResistance(t *testing.T) {
	const (
		t1, kz1 = 1e-3, 120.0 // bottom layer
		t2, kz2 = 0.4e-3, 3.0 // top layer, source cells included
		kLat    = 1.0         // lateral conductivity: carries no heat here
		tSrc    = 2e-5        // one cell plane of source at the top
		qv      = 1e9         // W/m³ in the source plane
		side    = 5e-4
	)
	x, _ := mesh.Uniform(0, side, 3)
	z, err := mesh.Line(0, []mesh.Interval{
		{Hi: t1, Cells: 8},
		{Hi: t1 + t2 - tSrc, Cells: 6},
		{Hi: t1 + t2, Cells: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K: func(_, _, _ float64) float64 { return kLat },
		KZ: func(_, _, zz float64) float64 {
			if zz < t1 {
				return kz1
			}
			return kz2
		},
		Q: func(_, _, zz float64) float64 {
			if zz > t1+t2-tSrc {
				return qv
			}
			return 0
		},
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := solveCart(p, sparse.Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	flux := qv * tSrc // W/m² crossing every plane below the source
	var below float64 // Σ h/KZ of the cells under the current one
	for l, zz := range sol.ZCenters {
		h := z[l+1] - z[l]
		kz := p.KZ(0, 0, zz)
		want := flux * (below + h/2/kz)
		below += h / kz
		for j := range sol.T[l] {
			for i, got := range sol.T[l][j] {
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("T[%d][%d][%d] = %.15g, series resistance gives %.15g", l, j, i, got, want)
				}
			}
		}
	}
	wantMax := flux * (t1/kz1 + (t2-tSrc/2)/kz2)
	if got := cartMaxT(sol); math.Abs(got-wantMax) > 1e-9*wantMax {
		t.Fatalf("max ΔT = %.15g, want %.15g", got, wantMax)
	}
}

func TestCartTotalSource(t *testing.T) {
	x, _ := mesh.Uniform(0, 1e-3, 4)
	z, _ := mesh.Uniform(0, 2e-3, 8)
	p := &CartProblem{
		XEdges: x, YEdges: append([]float64(nil), x...), ZEdges: z,
		K:      func(_, _, _ float64) float64 { return 1 },
		Q:      func(_, _, _ float64) float64 { return 1e6 },
		Bottom: Fixed(0),
		Top:    Insulated(),
	}
	sol, err := solveCart(p, sparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6 * 1e-3 * 1e-3 * 2e-3
	if got := cartSource(p, sol); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("source = %g, want %g", got, want)
	}
}

func TestCartValidation(t *testing.T) {
	x, _ := mesh.Uniform(0, 1, 2)
	good := &CartProblem{
		XEdges: x, YEdges: x, ZEdges: x,
		K:      func(_, _, _ float64) float64 { return 1 },
		Bottom: Fixed(0), Top: Insulated(),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *good
	bad.K = nil
	if _, err := solveCart(&bad, sparse.Options{}); err == nil {
		t.Error("nil K accepted")
	}
	bad2 := *good
	bad2.Bottom, bad2.Top = Insulated(), Insulated()
	if _, err := solveCart(&bad2, sparse.Options{}); err == nil {
		t.Error("no Dirichlet face accepted")
	}
	bad3 := *good
	bad3.XEdges = []float64{1, 0}
	if _, err := solveCart(&bad3, sparse.Options{}); err == nil {
		t.Error("decreasing edges accepted")
	}
	bad4 := *good
	bad4.K = func(_, _, _ float64) float64 { return 0 }
	if _, err := solveCart(&bad4, sparse.Options{}); err == nil {
		t.Error("zero conductivity accepted")
	}
}

// TestAxisymmetricReductionValidatedIn3D is the key substitution check of
// this reproduction: the true 3-D square block with a cylindrical via and
// its equal-area axisymmetric reduction must agree on the maximum
// temperature rise within a few percent.
func TestAxisymmetricReductionValidatedIn3D(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D cross-validation is slow")
	}
	// Thick liner (Fig. 5 at t_L = 3 µm): the Cartesian grid resolves the
	// liner ring well, so the two solvers must agree tightly.
	s, err := stack.Fig5Block(units.UM(3))
	if err != nil {
		t.Fatal(err)
	}
	axi, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	axiMax, _, _ := axi.MaxT()

	p3, err := BuildCartProblem(s, DefaultCartResolution())
	if err != nil {
		t.Fatal(err)
	}
	sol3, err := solveCart(p3, sparse.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	checkCartMG(t, "Fig. 5", sol3)
	cartMax := cartMaxT(sol3)
	if e := units.RelErr(axiMax, cartMax); e > 0.05 {
		t.Errorf("axisymmetric %g vs 3-D %g differ by %.1f%%", axiMax, cartMax, 100*e)
	}
	// Power bookkeeping across both problem builders.
	if e := units.RelErr(cartSource(p3, sol3), s.TotalPower()); e > 1e-9 {
		t.Errorf("3-D source %g vs stack power %g", cartSource(p3, sol3), s.TotalPower())
	}

	// Thin liner (Fig. 4 at t_L = 0.5 µm): the staircase ring resolves less
	// cleanly; require agreement within 10%.
	s4, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	axi4, err := SolveStackWith(context.Background(), nil, s4, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	axi4Max, _, _ := axi4.MaxT()
	p4, err := BuildCartProblem(s4, DefaultCartResolution())
	if err != nil {
		t.Fatal(err)
	}
	sol4, err := solveCart(p4, sparse.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	checkCartMG(t, "Fig. 4", sol4)
	if e := units.RelErr(axi4Max, cartMaxT(sol4)); e > 0.10 {
		t.Errorf("thin-liner axisymmetric %g vs 3-D %g differ by %.1f%%", axi4Max, cartMaxT(sol4), 100*e)
	}
}

// checkCartMG asserts that a 3-D block solve ran multigrid — the
// z-semicoarsened plane hierarchy mg.Build gives 3-axis grids — and
// converged well inside the 25-iteration band.
func checkCartMG(t *testing.T, what string, sol *CartSolution) {
	t.Helper()
	if sol.Stats.Precond != sparse.PrecondMG {
		t.Errorf("%s 3-D solve ran %v, want multigrid", what, sol.Stats.Precond)
	}
	if sol.Stats.Iterations > 25 {
		t.Errorf("%s 3-D solve took %d CG iterations, want <= 25", what, sol.Stats.Iterations)
	}
}

// TestCartMGIterations gates the 3-D hierarchy on the paper's blocks: Fig. 4
// across the via radii (2, 10 and 20 µm) and Fig. 5 across the liner
// thicknesses (0.2 and 3 µm), at the default 3-D resolution.
func TestCartMGIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D block solves are slow")
	}
	blocks := []struct {
		what string
		mk   func() (*stack.Stack, error)
	}{
		{"Fig. 4 r=2", func() (*stack.Stack, error) { return stack.Fig4Block(units.UM(2)) }},
		{"Fig. 4 r=10", func() (*stack.Stack, error) { return stack.Fig4Block(units.UM(10)) }},
		{"Fig. 4 r=20", func() (*stack.Stack, error) { return stack.Fig4Block(units.UM(20)) }},
		{"Fig. 5 tL=0.2", func() (*stack.Stack, error) { return stack.Fig5Block(units.UM(0.2)) }},
		{"Fig. 5 tL=3", func() (*stack.Stack, error) { return stack.Fig5Block(units.UM(3)) }},
	}
	for _, b := range blocks {
		s, err := b.mk()
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildCartProblem(s, DefaultCartResolution())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solveCart(p, sparse.Options{Tol: 1e-9})
		if err != nil {
			t.Fatalf("%s: %v", b.what, err)
		}
		t.Logf("%s: %d CG iterations, %d levels", b.what, sol.Stats.Iterations, sol.Stats.Levels)
		checkCartMG(t, b.what, sol)
	}
}

func TestBuildCartProblemRejectsClusters(t *testing.T) {
	s, err := stack.Fig7Block(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCartProblem(s, DefaultCartResolution()); err == nil {
		t.Error("cluster accepted by the 3-D block builder")
	}
}

func TestBuildCartProblemRejectsBadResolution(t *testing.T) {
	s, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCartProblem(s, CartResolution{}); err == nil {
		t.Error("zero resolution accepted")
	}
}

// TestBuildersShareAxialMesh checks that the axisymmetric and the 3-D
// builders mesh z by the one rule: at the base mesh's axial counts the 3-D
// block has the base mesh's z edges, bit for bit.
func TestBuildersShareAxialMesh(t *testing.T) {
	s := fig4(t, 10)
	cres := DefaultCartResolution()
	cres.AxialPerLayer, cres.AxialMin, cres.Bulk = axialLayer, axialThin, axialBulk
	cart, err := BuildCartProblem(s, cres)
	if err != nil {
		t.Fatal(err)
	}
	axi, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(axi.ZEdges, cart.ZEdges) {
		t.Errorf("z edges differ:\naxi  %v\ncart %v", axi.ZEdges, cart.ZEdges)
	}
}

// cartMaxT returns the maximum cell temperature of a 3-D solution.
func cartMaxT(s *CartSolution) float64 {
	max := math.Inf(-1)
	for _, plane := range s.T {
		for _, row := range plane {
			for _, t := range row {
				max = math.Max(max, t)
			}
		}
	}
	return max
}

// cartSource integrates p's volumetric source over the mesh of its solution
// s (W).
func cartSource(p *CartProblem, s *CartSolution) float64 {
	var q float64
	for l := range s.T {
		dz := p.ZEdges[l+1] - p.ZEdges[l]
		for j := range s.T[l] {
			dy := p.YEdges[j+1] - p.YEdges[j]
			for i := range s.T[l][j] {
				dx := p.XEdges[i+1] - p.XEdges[i]
				q += p.Q(s.XCenters[i], s.YCenters[j], s.ZCenters[l]) * dx * dy * dz
			}
		}
	}
	return q
}
