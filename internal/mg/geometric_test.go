package mg

import (
	"strings"
	"testing"

	"repro/internal/sparse"
)

// poisson3D is the 7-point Dirichlet Laplacian on an nx×ny×nz grid — the
// Cartesian member of the geometric property-test grid zoo.
func poisson3D(nx, ny, nz int) *sparse.Stencil { return laplacian(6, nx, ny, nz) }

// The geometric hierarchy must coarsen 2× per axis with no assembled CSRs:
// the caller's stencil on the finest level, coefficient-backed stencils
// below it.
func TestGeometricHierarchyShape(t *testing.T) {
	a := poisson2D(64, 64)
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Geometric() {
		t.Fatal("Geometric() = false on a geometric build")
	}
	sizes := h.LevelSizes()
	want := []int{4096, 1024, 256}
	if len(sizes) != len(want) {
		t.Fatalf("level sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("level sizes %v, want %v", sizes, want)
		}
	}
	if h.levels[0].op != a {
		t.Fatal("finest level does not run on the caller's stencil")
	}
	for k, lv := range h.levels {
		if _, ok := lv.op.(*sparse.Stencil); !ok {
			t.Fatalf("geometric level %d operator is %T, want *sparse.Stencil", k, lv.op)
		}
	}
}

func TestGeometricBuildRejections(t *testing.T) {
	// A positive off-diagonal (not a conductance network) must be rejected.
	a := poisson2D(32, 32)
	_, off := a.Coeffs()
	off[0][0] = 0.5
	if _, err := Build(a, Options{}); err == nil ||
		!strings.Contains(err.Error(), "conductance") {
		t.Fatalf("positive off-diagonal: err = %v, want conductance-network rejection", err)
	}
}

// The geometric W-cycle must be a fixed SPD operator on every grid shape
// it serves: one axis and two.
func TestGeometricCycleSymmetricPositiveDefinite(t *testing.T) {
	for _, a := range []*sparse.Stencil{laplacian(4, 1500), poisson2D(40, 40)} {
		h, err := Build(a, Options{})
		if err != nil {
			t.Fatalf("%v: %v", a.Dims(), err)
		}
		checkSymmetricPositiveDefinite(t, h, a.Rows())
	}
}

// TestGeometricHierarchyProperty is the geometric hierarchy's acceptance
// property over the grid zoo (2-D Poisson, flipping-anisotropy layered,
// high-contrast layered, and the 3-D Poisson cube, which Build itself hands
// to Galerkin) × worker counts 1/2/4/8:
//
//   - cycle output is bit-identical for every worker count;
//   - preconditioned CG takes at most 3 iterations more than the Galerkin
//     hierarchy on the same system (on the axisymmetric fem stacks geometric
//     needs FEWER iterations than Galerkin; the +3 headroom covers the
//     synthetic 1000:1-contrast worst case, where W-cycle line smoothing
//     plateaus at +3 for any damping factor). The isotropic cube passes;
//     the strongly coupled 3-D stacks do not, which is why Build keeps
//     Galerkin there (see fem's checkCartMG).
func TestGeometricHierarchyProperty(t *testing.T) {
	grids := []struct {
		name string
		mk   func() *sparse.Stencil
	}{
		{"poisson2d", func() *sparse.Stencil { return poisson2D(64, 64) }},
		{"layered2d", func() *sparse.Stencil { return layered2D(64, 64) }},
		{"cart3d", func() *sparse.Stencil { return poisson3D(16, 16, 16) }},
		{"contrast1e3", func() *sparse.Stencil { return layeredContrast(64, 64, 1000) }},
	}
	workers := []int{1, 2, 4, 8}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			a := g.mk()
			n := a.Rows()
			b := make([]float64, n)
			fillRand(b, 77)

			gal, err := build(a, Options{}, false)
			if err != nil {
				t.Fatalf("galerkin build: %v", err)
			}
			_, galSt, err := sparse.SolveCG(a, b, sparse.Options{Precond: sparse.PrecondMG, MG: gal, Tol: 1e-10})
			if err != nil {
				t.Fatalf("galerkin solve: %v", err)
			}

			h, err := build(a, Options{}, true)
			if err != nil {
				t.Fatalf("geometric build: %v", err)
			}
			// Bit-identical cycles across worker counts.
			r := make([]float64, n)
			fillRand(r, 5)
			var ref []float64
			for _, w := range workers {
				p := sparse.NewPool(w)
				z := make([]float64, n)
				h.Cycle(z, r, p)
				p.Close()
				if ref == nil {
					ref = z
					continue
				}
				sameBits(t, g.name+" cycle workers", z, ref)
			}
			_, st, err := sparse.SolveCG(a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
			if err != nil {
				t.Fatalf("geometric solve: %v", err)
			}
			// Both hierarchies stay in the mesh-independent band, so a
			// Galerkin regression cannot loosen the relative check below.
			if galSt.Iterations > 30 || st.Iterations > 30 {
				t.Fatalf("CG iterations: galerkin %d, geometric %d, want both <= 30",
					galSt.Iterations, st.Iterations)
			}
			if st.Iterations > galSt.Iterations+3 {
				t.Fatalf("geometric: %d CG iterations, galerkin took %d (allowed +3)",
					st.Iterations, galSt.Iterations)
			}
		})
	}
}

// The stationary iteration x += M(b - Ax) with the geometric W-cycle must
// still contract fast enough to be a useful preconditioner on its own.
func TestGeometricStationaryConverges(t *testing.T) {
	for name, mk := range map[string]func(int, int) *sparse.Stencil{
		"poisson": poisson2D, "layered": layered2D,
	} {
		a := mk(48, 48)
		h, err := Build(a, Options{})
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
		if rel := norm2(r) / r0; rel > 1e-6 {
			t.Fatalf("%s: stationary geometric cycle reduced the residual only to %g in 30 iterations", name, rel)
		}
	}
}
