package mg

import (
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
		if _, err := Build(poisson2D(4, 4), Options{}); err == nil || !strings.Contains(err.Error(), "cannot coarsen") {
			t.Fatalf("Build err = %v, want substring %q", err, "cannot coarsen")
		}
	})

	// A zero diagonal breaks the Galerkin levels' Jacobi-scaled smoother
	// (the geometric builder rejects this matrix earlier, for its positive
	// off-diagonal; see TestGeometricBuildRejections).
	diag := make([]float64, 2048)
	off := make([]float64, 2048)
	for i := 0; i < 2047; i++ {
		diag[i] = 1
	}
	off[2046] = 1
	if _, err := build(mustStencil([]int{2048}, diag, [3][]float64{off}), Options{}, false); err == nil {
		t.Fatal("Build accepted a matrix with a non-positive diagonal")
	}
}

// Build picks the hierarchy from the grid: geometric on 1–2 axes, smoothed
// aggregation on 3.
func TestBuildPicksHierarchyByAxes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a         *sparse.Stencil
		geometric bool
	}{
		{"1 axis", laplacian(4, 1024), true},
		{"2 axes", poisson2D(32, 32), true},
		{"3 axes", poisson3D(12, 12, 12), false},
	} {
		h, err := Build(tc.a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h.Geometric() != tc.geometric {
			t.Errorf("%s: Geometric() = %v, want %v", tc.name, h.Geometric(), tc.geometric)
		}
	}
}

// The Galerkin hierarchy's levels shrink strictly down to a small coarsest
// level; TestGeometricHierarchyShape covers the geometric one.
func TestHierarchyShape(t *testing.T) {
	a := poisson2D(64, 64)
	h, err := build(a, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 64*64 {
		t.Fatalf("Size = %d, want %d", h.Size(), 64*64)
	}
	sizes := h.LevelSizes()
	if len(sizes) != h.Levels() || h.Levels() < 2 {
		t.Fatalf("Levels = %d, LevelSizes = %v", h.Levels(), sizes)
	}
	for k := 1; k < len(sizes); k++ {
		if sizes[k] >= sizes[k-1] {
			t.Fatalf("level sizes must strictly decrease: %v", sizes)
		}
	}
	if last := sizes[len(sizes)-1]; last > 400 {
		t.Fatalf("coarsest level has %d unknowns, want <= 400 (sizes %v)", last, sizes)
	}
}

func TestAggregationCoversAndIsDeterministic(t *testing.T) {
	for _, mk := range []func(int, int) *sparse.Stencil{poisson2D, layered2D} {
		a := mk(48, 48)
		ar := extractCSR(a, &arena{})
		agg, nc := aggregateStrength(ar, &arena{})
		if nc <= 0 || nc >= a.Rows() {
			t.Fatalf("nc = %d of %d rows", nc, a.Rows())
		}
		seen := make([]int, nc)
		for i, c := range agg {
			if c < 0 || int(c) >= nc {
				t.Fatalf("cell %d assigned to aggregate %d of %d", i, c, nc)
			}
			seen[c]++
		}
		for c, cnt := range seen {
			if cnt < 1 || cnt > 2 {
				t.Fatalf("aggregate %d has %d cells, want 1 or 2 (pairwise matching)", c, cnt)
			}
		}
		agg2, nc2 := aggregateStrength(extractCSR(a, &arena{}), &arena{})
		if nc2 != nc {
			t.Fatalf("second run: nc = %d, want %d", nc2, nc)
		}
		for i := range agg {
			if agg[i] != agg2[i] {
				t.Fatalf("aggregation not deterministic at cell %d: %d vs %d", i, agg[i], agg2[i])
			}
		}
	}
}

func TestAggregationFollowsStrongCoupling(t *testing.T) {
	// In the layered operator the strong axis flips at ny/2; pairwise
	// matching must pair along x below and along z above. Check a sample of
	// interior cells: the partner (the other cell in the aggregate) must be
	// a strong-direction neighbor.
	nx, ny := 32, 32
	a := layered2D(nx, ny)
	agg, nc := aggregateStrength(extractCSR(a, &arena{}), &arena{})
	partner := make([]int, nc)
	for i := range partner {
		partner[i] = -1
	}
	for i, c := range agg {
		if partner[c] == -1 {
			partner[c] = i
		} else {
			partner[c] = partner[c]*100000 + i // encode the pair
		}
	}
	checked := 0
	for iy := 2; iy < ny-2; iy++ {
		for ix := 2; ix < nx-2; ix++ {
			i := iy*nx + ix
			pair := partner[agg[i]]
			if pair < 100000 {
				continue // singleton
			}
			lo, hi := pair/100000, pair%100000
			j := lo
			if j == i {
				j = hi
			}
			d := j - i
			if d < 0 {
				d = -d
			}
			strongX := iy < ny/2
			if jy := j / nx; jy >= 2 && jy < ny-2 {
				if strongX && d != 1 {
					t.Fatalf("cell (%d,%d) in strong-x band paired with offset %d, want ±1", ix, iy, j-i)
				}
				if !strongX && d != nx {
					t.Fatalf("cell (%d,%d) in strong-z band paired with offset %d, want ±%d", ix, iy, j-i, nx)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d interior pairs checked", checked)
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

// The Galerkin V-cycle must be a fixed SPD operator.
func TestCycleIsSymmetricPositiveDefinite(t *testing.T) {
	a := poisson2D(32, 32)
	h, err := build(a, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricPositiveDefinite(t, h, a.Rows())
}

// TestWCycleIsSymmetricAndConverges: the geometric hierarchy's truncated
// W-cycle adds its extra coarse visit as an additive residual correction,
// so on the flipping-anisotropy grid it must remain a fixed SPD operator
// (CG-safe) and precondition CG into the mesh-independent band.
func TestWCycleIsSymmetricAndConverges(t *testing.T) {
	a := layered2D(48, 48)
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricPositiveDefinite(t, h, a.Rows())
	b := make([]float64, a.Rows())
	fillRand(b, 11)
	_, st, err := sparse.SolveCG(a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 30 {
		t.Fatalf("W-cycle CG took %d iterations, want <= 30", st.Iterations)
	}
}

func TestVCycleStationaryIterationConverges(t *testing.T) {
	for name, mk := range map[string]func(int, int) *sparse.Stencil{
		"poisson": poisson2D, "layered": layered2D,
	} {
		a := mk(48, 48)
		h, err := build(a, Options{}, false)
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
	for _, geometric := range []bool{false, true} {
		for _, nx := range []int{32, 64, 128} {
			a := poisson2D(nx, nx)
			h, err := build(a, Options{}, geometric)
			if err != nil {
				t.Fatalf("geometric=%v %d: %v", geometric, nx, err)
			}
			b := make([]float64, a.Rows())
			fillRand(b, 9)
			_, st, err := sparse.SolveCG(a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
			if err != nil {
				t.Fatalf("geometric=%v %d: %v", geometric, nx, err)
			}
			if st.Iterations > 30 {
				t.Fatalf("geometric=%v grid %d×%d: %d CG iterations, want <= 30", geometric, nx, nx, st.Iterations)
			}
			if st.Levels != h.Levels() {
				t.Fatalf("stats report %d levels, hierarchy has %d", st.Levels, h.Levels())
			}
		}
	}
}

func TestHierarchySizeMismatchRejected(t *testing.T) {
	a := poisson2D(32, 32)
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	small := poisson2D(16, 16)
	b := make([]float64, small.Rows())
	b[0] = 1
	if _, _, err := sparse.SolveCG(small, b, sparse.Options{Precond: sparse.PrecondMG, MG: h}); err == nil {
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
