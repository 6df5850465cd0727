package mg

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// poisson2D assembles the 5-point Dirichlet Laplacian on an nx×ny grid —
// the canonical mesh-independence benchmark for a multigrid cycle.
func poisson2D(nx, ny int) (*sparse.CSR, []int) {
	n := nx * ny
	coo := sparse.NewCOO(n, n)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			coo.Add(i, i, 4)
			if ix > 0 {
				coo.Add(i, i-1, -1)
			}
			if ix < nx-1 {
				coo.Add(i, i+1, -1)
			}
			if iy > 0 {
				coo.Add(i, i-nx, -1)
			}
			if iy < ny-1 {
				coo.Add(i, i+nx, -1)
			}
		}
	}
	return coo.ToCSR(), []int{nx, ny}
}

// layered2D assembles an anisotropic diffusion operator whose strong
// coupling direction flips between the lower and upper half of the grid —
// the same heterogeneity pattern as a via stack's thin-layer/bulk mix, which
// defeats any global semi-coarsening axis choice. Face coefficients are
// harmonic means of the two cells' conductivities (standard finite-volume
// form), so the matrix is symmetric; the bottom row is held at a Dirichlet
// sink so it is also positive definite.
func layered2D(nx, ny int) (*sparse.CSR, []int) {
	n := nx * ny
	kxy := func(iy int) (float64, float64) {
		if iy >= ny/2 {
			return 1, 100
		}
		return 100, 1
	}
	harm := func(a, b float64) float64 { return 2 * a * b / (a + b) }
	coo := sparse.NewCOO(n, n)
	diag := make([]float64, n)
	addFace := func(i, j int, kf float64) {
		coo.Add(i, j, -kf)
		coo.Add(j, i, -kf)
		diag[i] += kf
		diag[j] += kf
	}
	for iy := 0; iy < ny; iy++ {
		kx, ky := kxy(iy)
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			if ix < nx-1 {
				addFace(i, i+1, kx)
			}
			if iy < ny-1 {
				_, ky2 := kxy(iy + 1)
				addFace(i, i+nx, harm(ky, ky2))
			}
			if iy == 0 {
				diag[i] += 2 * ky // Dirichlet sink below the bottom row
			}
		}
	}
	for i, d := range diag {
		coo.Add(i, i, d)
	}
	return coo.ToCSR(), []int{nx, ny}
}

// fillRand fills v with a deterministic pseudo-random sequence in [-0.5, 0.5).
func fillRand(v []float64, seed uint64) {
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(s>>11)/float64(1<<53) - 0.5
	}
}

func TestBuildErrors(t *testing.T) {
	a, dims := poisson2D(16, 16)
	cases := []struct {
		name string
		a    *sparse.CSR
		dims []int
		want string
	}{
		{"no dims", a, nil, "no grid dimensions"},
		{"bad dim", a, []int{16, 0}, "invalid grid"},
		{"cell mismatch", a, []int{16, 8}, "cells"},
		{"too small", mustCSR(poisson2D(4, 4)), []int{4, 4}, "cannot coarsen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.a, tc.dims, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build err = %v, want substring %q", err, tc.want)
			}
		})
	}
	_ = dims

	// A zero diagonal breaks the Galerkin levels' Jacobi-scaled smoother
	// (the geometric builder rejects this matrix earlier, for its positive
	// off-diagonal; see TestGeometricBuildRejections).
	coo := sparse.NewCOO(2048, 2048)
	for i := 0; i < 2047; i++ {
		coo.Add(i, i, 1)
	}
	coo.Add(2047, 2046, 1)
	coo.Add(2046, 2047, 1)
	if _, err := build(coo.ToCSR(), []int{2048}, Options{}, false); err == nil {
		t.Fatal("Build accepted a matrix with a non-positive diagonal")
	}
}

func mustCSR(a *sparse.CSR, _ []int) *sparse.CSR { return a }

// Build picks the hierarchy from the grid: geometric on 1–2 axes, smoothed
// aggregation on 3.
func TestBuildPicksHierarchyByAxes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a         *sparse.CSR
		dims      []int
		geometric bool
	}{
		{"1 axis", mustCSR(poisson2D(1024, 1)), []int{1024}, true},
		{"2 axes", mustCSR(poisson2D(32, 32)), []int{32, 32}, true},
		{"3 axes", mustCSR(poisson3D(12, 12, 12)), []int{12, 12, 12}, false},
	} {
		h, err := Build(tc.a, tc.dims, Options{})
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
	a, dims := poisson2D(64, 64)
	h, err := build(a, dims, Options{}, false)
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
	for _, mk := range []func(int, int) (*sparse.CSR, []int){poisson2D, layered2D} {
		a, _ := mk(48, 48)
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
	a, _ := layered2D(nx, ny)
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
	p := sparse.NewPool(1)
	defer p.Close()
	u := make([]float64, n)
	v := make([]float64, n)
	mu := make([]float64, n)
	mv := make([]float64, n)
	for trial := uint64(0); trial < 5; trial++ {
		fillRand(u, 1000+trial)
		fillRand(v, 2000+trial)
		h.Cycle(mu, u, p)
		h.Cycle(mv, v, p)
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
	a, dims := poisson2D(32, 32)
	h, err := build(a, dims, Options{}, false)
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
	a, dims := layered2D(48, 48)
	h, err := Build(a, dims, Options{})
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
	for name, mk := range map[string]func(int, int) (*sparse.CSR, []int){
		"poisson": poisson2D, "layered": layered2D,
	} {
		a, dims := mk(48, 48)
		h, err := build(a, dims, Options{}, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := sparse.NewPool(1)
		n := a.Rows()
		b := make([]float64, n)
		fillRand(b, 7)
		x := make([]float64, n)
		r := make([]float64, n)
		z := make([]float64, n)
		copy(r, b)
		r0 := norm2(r)
		for it := 0; it < 30; it++ {
			h.Cycle(z, r, p)
			for i := range x {
				x[i] += z[i]
			}
			a.MulVec(x, r)
			for i := range r {
				r[i] = b[i] - r[i]
			}
		}
		p.Close()
		if rel := norm2(r) / r0; rel > 1e-8 {
			t.Fatalf("%s: stationary V-cycle reduced the residual only to %g in 30 iterations", name, rel)
		}
	}
}

func TestCycleBitIdenticalAcrossWorkers(t *testing.T) {
	a, dims := poisson2D(64, 64)
	h, err := build(a, dims, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	r := make([]float64, n)
	fillRand(r, 42)
	var ref []float64
	for _, w := range []int{1, 2, 4, 8} {
		p := sparse.NewPool(w)
		z := make([]float64, n)
		h.Cycle(z, r, p)
		p.Close()
		if ref == nil {
			ref = z
			continue
		}
		for i := range z {
			if z[i] != ref[i] {
				t.Fatalf("workers %d: z[%d] = %.17g != %.17g", w, i, z[i], ref[i])
			}
		}
	}
}

func TestCGIterationsMeshIndependent(t *testing.T) {
	// The point of the hierarchy: CG iteration counts must stay within a
	// constant band as the grid refines, for both hierarchies.
	for _, geometric := range []bool{false, true} {
		for _, nx := range []int{32, 64, 128} {
			a, dims := poisson2D(nx, nx)
			h, err := build(a, dims, Options{}, geometric)
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
	a, dims := poisson2D(32, 32)
	h, err := Build(a, dims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := poisson2D(16, 16)
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
