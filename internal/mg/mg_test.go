package mg

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// mustStencil wraps test coefficient arrays as a stencil operator.
func mustStencil(dims []int, diag []float64, off [3][]float64) *sparse.Stencil {
	st, err := sparse.NewStencilCoeffs(dims, diag, off)
	if err != nil {
		panic(err)
	}
	return st
}

// laplacian assembles a Dirichlet Laplacian stencil on a 1–3 axis grid: the
// given diagonal and −1 to every axis neighbor.
func laplacian(diag float64, dims ...int) *sparse.Stencil {
	n := 1
	for _, d := range dims {
		n *= d
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = diag
	}
	var off [3][]float64
	for ax, nd := range dims {
		if nd > 1 {
			off[ax] = make([]float64, n)
			for i := range off[ax] {
				off[ax][i] = -1 // entries past the high edge are never read
			}
		}
	}
	return mustStencil(dims, d, off)
}

// poisson2D is the 5-point Dirichlet Laplacian on an nx×ny grid — the
// canonical mesh-independence benchmark for a multigrid cycle.
func poisson2D(nx, ny int) *sparse.Stencil { return laplacian(4, nx, ny) }

// layered2D is an anisotropic diffusion operator whose strong coupling
// direction flips between the lower and upper half of the grid (see
// layeredContrast) at a 100:1 contrast.
func layered2D(nx, ny int) *sparse.Stencil { return layeredContrast(nx, ny, 100) }

// fillRand fills v with a deterministic pseudo-random sequence in [-0.5, 0.5).
func fillRand(v []float64, seed uint64) {
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(s>>11)/float64(1<<53) - 0.5
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("too small", func(t *testing.T) {
		for _, a := range []*sparse.Stencil{poisson2D(4, 4), poisson3D(8, 8, 1)} {
			if _, err := Build(a); err == nil || !strings.Contains(err.Error(), "cannot coarsen") {
				t.Fatalf("Build(%v) err = %v, want substring %q", a.Dims(), err, "cannot coarsen")
			}
		}
	})

	// A zero diagonal leaves a plane block without a positive pivot (a
	// positive off-diagonal is rejected earlier; see
	// TestGeometricBuildRejections).
	a := poisson3D(8, 8, 8)
	diag, _ := a.Coeffs()
	diag[300] = 0
	if _, err := Build(a); err == nil || !strings.Contains(err.Error(), "plane") {
		t.Fatalf("Build err = %v, want a plane factorization failure", err)
	}
}

// Build picks the hierarchy from the grid: full coarsening with line
// smoothing and a dense coarse solve on 1–2 axes, z-semicoarsening with
// plane smoothing down to one plane on 3.
func TestBuildPicksHierarchyByAxes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a      *sparse.Stencil
		planes bool
	}{
		{"1 axis", laplacian(4, 1024), false},
		{"2 axes", poisson2D(32, 32), false},
		{"3 axes", poisson3D(12, 12, 12), true},
	} {
		h, err := Build(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for k, lv := range h.levels {
			if (lv.planes != nil) != tc.planes || (lv.lines != nil) == tc.planes {
				t.Fatalf("%s: level %d smooths by planes %v, lines %v", tc.name, k, lv.planes != nil, lv.lines != nil)
			}
		}
		if (h.coarse == nil) != tc.planes {
			t.Errorf("%s: dense coarse solve present = %v", tc.name, h.coarse != nil)
		}
	}
}

// levelSizes returns the unknown count per level, finest first.
func levelSizes(h *Hierarchy) []int {
	out := make([]int, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.op.Rows()
	}
	return out
}

// The semicoarsened hierarchy halves z only, level after level, down to a
// single plane, and its finest level runs on the caller's stencil;
// TestGeometricHierarchyShape covers the fully coarsened one.
func TestHierarchyShape(t *testing.T) {
	a := poisson3D(12, 10, 9)
	h, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != a.Rows() {
		t.Fatalf("Size = %d, want %d", h.Size(), a.Rows())
	}
	sizes := levelSizes(h)
	want := []int{120 * 9, 120 * 5, 120 * 3, 120 * 2, 120}
	if len(sizes) != len(want) || h.Levels() != len(want) {
		t.Fatalf("Levels = %d, LevelSizes = %v, want %v", h.Levels(), sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("level sizes %v, want %v", sizes, want)
		}
	}
	if h.levels[0].op != a {
		t.Fatal("finest level does not run on the caller's stencil")
	}
}

// checkSymmetricPositiveDefinite probes a built cycle M with random vector
// pairs: u·Mv must equal v·Mu and u·Mu must be positive, or CG quietly
// loses its convergence guarantee.
func checkSymmetricPositiveDefinite(t *testing.T, h *Hierarchy, n int) {
	t.Helper()
	u := make([]float64, n)
	v := make([]float64, n)
	mu := make([]float64, n)
	mv := make([]float64, n)
	for trial := uint64(0); trial < 5; trial++ {
		fillRand(u, 1000+trial)
		fillRand(v, 2000+trial)
		h.Cycle(mu, u)
		h.Cycle(mv, v)
		uMv, vMu, uMu := dot(u, mv), dot(v, mu), dot(u, mu)
		if rel := math.Abs(uMv-vMu) / math.Max(math.Abs(uMv), 1e-300); rel > 1e-10 {
			t.Fatalf("trial %d: cycle not symmetric: u·Mv = %.17g, v·Mu = %.17g (rel %g)", trial, uMv, vMu, rel)
		}
		if uMu <= 0 {
			t.Fatalf("trial %d: u·Mu = %g, cycle is not positive definite", trial, uMu)
		}
	}
}

// The semicoarsened V-cycle must be a fixed SPD operator on the 3-D grids:
// isotropic, layered anisotropic and high-contrast.
func TestCycleIsSymmetricPositiveDefinite(t *testing.T) {
	for _, a := range []*sparse.Stencil{poisson3D(10, 10, 10), layered3D(12, 12, 20), contrast3D(12, 12, 20, 1000)} {
		h, err := Build(a)
		if err != nil {
			t.Fatalf("%v: %v", a.Dims(), err)
		}
		checkSymmetricPositiveDefinite(t, h, a.Rows())
	}
}

// TestWCycleIsSymmetricAndConverges: the geometric hierarchy's truncated
// W-cycle adds its extra coarse visit as an additive residual correction,
// so on the flipping-anisotropy grid it must remain a fixed SPD operator
// (CG-safe) and precondition CG into the mesh-independent band.
func TestWCycleIsSymmetricAndConverges(t *testing.T) {
	a := layered2D(48, 48)
	h, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricPositiveDefinite(t, h, a.Rows())
	b := make([]float64, a.Rows())
	fillRand(b, 11)
	_, st, err := sparse.SolveCGCtx(context.Background(), a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 30 {
		t.Fatalf("W-cycle CG took %d iterations, want <= 30", st.Iterations)
	}
}

// The stationary iteration x += M(b - Ax) with the semicoarsened V-cycle
// must contract fast enough to be a useful preconditioner on its own on the
// isotropic and the high-contrast block. It does not on layered3D: a thick
// cell next to a band of thin layers interpolates about half its value from
// the thin band's coarse cell, whose summed lateral conductance is far below
// what the Galerkin product PᵀAP would give it, so the coarse correction
// overshoots there (M·A has eigenvalues above 2). The cycle stays SPD, and
// CG converges on layered3D in the band TestGeometricHierarchyProperty
// asserts.
func TestVCycleStationaryIterationConverges(t *testing.T) {
	for name, a := range map[string]*sparse.Stencil{
		"poisson": poisson3D(12, 12, 12), "contrast": contrast3D(12, 12, 20, 1000),
	} {
		h, err := Build(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := a.Rows()
		b := make([]float64, n)
		fillRand(b, 7)
		x := make([]float64, n)
		r := make([]float64, n)
		z := make([]float64, n)
		copy(r, b)
		r0 := norm2(r)
		for it := 0; it < 30; it++ {
			h.Cycle(z, r)
			for i := range x {
				x[i] += z[i]
			}
			a.MulVec(x, r)
			for i := range r {
				r[i] = b[i] - r[i]
			}
		}
		if rel := norm2(r) / r0; rel > 1e-8 {
			t.Fatalf("%s: stationary V-cycle reduced the residual only to %g in 30 iterations", name, rel)
		}
	}
}

func TestCGIterationsMeshIndependent(t *testing.T) {
	// The point of the hierarchy: CG iteration counts must stay within a
	// constant band as the grid refines, for both hierarchies.
	for _, a := range []*sparse.Stencil{
		poisson2D(32, 32), poisson2D(64, 64), poisson2D(128, 128),
		layered3D(8, 8, 20), layered3D(16, 16, 40), layered3D(32, 32, 80),
	} {
		h, err := Build(a)
		if err != nil {
			t.Fatalf("%v: %v", a.Dims(), err)
		}
		b := make([]float64, a.Rows())
		fillRand(b, 9)
		_, st, err := sparse.SolveCGCtx(context.Background(), a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
		if err != nil {
			t.Fatalf("%v: %v", a.Dims(), err)
		}
		if st.Iterations > 30 {
			t.Fatalf("grid %v: %d CG iterations, want <= 30", a.Dims(), st.Iterations)
		}
		if st.Levels != h.Levels() {
			t.Fatalf("stats report %d levels, hierarchy has %d", st.Levels, h.Levels())
		}
	}
}

func TestHierarchySizeMismatchRejected(t *testing.T) {
	a := poisson2D(32, 32)
	h, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	small := poisson2D(16, 16)
	b := make([]float64, small.Rows())
	b[0] = 1
	if _, _, err := sparse.SolveCGCtx(context.Background(), small, b, sparse.Options{Precond: sparse.PrecondMG, MG: h}); err == nil {
		t.Fatal("SolveCG accepted a hierarchy built for a different matrix size")
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }
