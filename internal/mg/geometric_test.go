package mg

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// poisson3D is the 7-point Dirichlet Laplacian on an nx×ny×nz grid.
func poisson3D(nx, ny, nz int) *sparse.Stencil { return laplacian(6, nx, ny, nz) }

// block3D assembles the finite-volume conductance network of an
// nx×ny×nz block of unit-square columns with layer thicknesses hz(iz) and
// cell conductivities k(ix, iy, iz) — harmonic-mean faces, a Dirichlet sink
// below the bottom layer, adiabatic elsewhere — the shape of the 3-D via
// stacks.
func block3D(nx, ny, nz int, hz func(iz int) float64, k func(ix, iy, iz int) float64) *sparse.Stencil {
	n, nxy := nx*ny*nz, nx*ny
	diag := make([]float64, n)
	off := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	// link couples cells i and j through two half-cell resistances.
	link := func(d, i, j int, ri, rj float64) {
		g := 1 / (ri + rj)
		off[d][i] = -g
		diag[i] += g
		diag[j] += g
	}
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := iz*nxy + iy*nx + ix
				kc, h := k(ix, iy, iz), hz(iz)
				// Lateral half-cell resistance: length 0.5 over area h.
				lat := 0.5 / (kc * h)
				if ix+1 < nx {
					link(0, i, i+1, lat, 0.5/(k(ix+1, iy, iz)*h))
				}
				if iy+1 < ny {
					link(1, i, i+nx, lat, 0.5/(k(ix, iy+1, iz)*h))
				}
				if iz+1 < nz {
					link(2, i, i+nxy, 0.5*h/kc, 0.5*hz(iz+1)/k(ix, iy, iz+1))
				}
				if iz == 0 {
					diag[i] += 2 * kc / h
				}
			}
		}
	}
	return mustStencil([]int{nx, ny, nz}, diag, off)
}

// layered3D alternates thick bulk layers (strong lateral coupling) with
// bands of layers 100× thinner (strong z coupling) — the heterogeneous
// anisotropy of a via stack, where no single axis is the strong one.
func layered3D(nx, ny, nz int) *sparse.Stencil {
	return block3D(nx, ny, nz,
		func(iz int) float64 {
			if iz/4%2 == 1 {
				return 0.01
			}
			return 1
		},
		func(_, _, _ int) float64 { return 1 })
}

// contrast3D puts a square via of conductivity contrast:1 through the
// middle of every layer above the bottom quarter, in a matrix of unit
// conductivity with thin layers every fourth layer.
func contrast3D(nx, ny, nz int, contrast float64) *sparse.Stencil {
	return block3D(nx, ny, nz,
		func(iz int) float64 {
			if iz%4 == 3 {
				return 0.02
			}
			return 1
		},
		func(ix, iy, iz int) float64 {
			if iz >= nz/4 && 2*ix >= nx/2 && 2*ix < 3*nx/2 && 2*iy >= ny/2 && 2*iy < 3*ny/2 {
				return contrast
			}
			return 1
		})
}

// layeredContrast assembles an anisotropic diffusion operator whose strong
// coupling direction flips between the lower and upper half of the grid —
// the same heterogeneity pattern as a via stack's thin-layer/bulk mix, which
// defeats any global semi-coarsening axis choice. Face coefficients are
// harmonic means of the two cells' conductivities (standard finite-volume
// form); the bottom row is held at a Dirichlet sink so the operator is
// positive definite.
func layeredContrast(nx, ny int, contrast float64) *sparse.Stencil {
	n := nx * ny
	kxy := func(iy int) (float64, float64) {
		if iy >= ny/2 {
			return 1, contrast
		}
		return contrast, 1
	}
	harm := func(a, b float64) float64 { return 2 * a * b / (a + b) }
	diag := make([]float64, n)
	off := [3][]float64{make([]float64, n), make([]float64, n)}
	for iy := 0; iy < ny; iy++ {
		kx, ky := kxy(iy)
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			if ix < nx-1 {
				off[0][i] = -kx
				diag[i] += kx
				diag[i+1] += kx
			}
			if iy < ny-1 {
				_, ky2 := kxy(iy + 1)
				kf := harm(ky, ky2)
				off[1][i] = -kf
				diag[i] += kf
				diag[i+nx] += kf
			}
			if iy == 0 {
				diag[i] += 2 * ky // Dirichlet sink below the bottom row
			}
		}
	}
	return mustStencil([]int{nx, ny}, diag, off)
}

func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: bit difference at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// The fully coarsened hierarchy must coarsen 2× per axis, running on the
// caller's stencil on the finest level.
func TestGeometricHierarchyShape(t *testing.T) {
	a := poisson2D(64, 64)
	h, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := levelSizes(h)
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
}

func TestGeometricBuildRejections(t *testing.T) {
	// A positive off-diagonal (not a conductance network) must be rejected.
	a := poisson2D(32, 32)
	_, off := a.Coeffs()
	off[0][0] = 0.5
	if _, err := Build(a); err == nil ||
		!strings.Contains(err.Error(), "conductance") {
		t.Fatalf("positive off-diagonal: err = %v, want conductance-network rejection", err)
	}
}

// The geometric W-cycle must be a fixed SPD operator on every grid shape
// it serves: one axis and two.
func TestGeometricCycleSymmetricPositiveDefinite(t *testing.T) {
	for _, a := range []*sparse.Stencil{laplacian(4, 1500), poisson2D(40, 40)} {
		h, err := Build(a)
		if err != nil {
			t.Fatalf("%v: %v", a.Dims(), err)
		}
		checkSymmetricPositiveDefinite(t, h, a.Rows())
	}
}

// TestGeometricHierarchyProperty is the acceptance property of both
// hierarchies over the grid zoo (2-D Poisson, flipping-anisotropy layered
// and high-contrast layered under full coarsening; the 3-D Poisson cube, a
// layered anisotropic block and a 1000:1-contrast via block under
// z-semicoarsening):
//
//   - repeated cycles on one input are bit-identical (no state leaks from
//     one cycle into the next through the level scratch);
//   - preconditioned CG converges to 1e-10 in at most 25 iterations, the
//     band the 3-D block solves are gated on (fem's checkCartMG).
func TestGeometricHierarchyProperty(t *testing.T) {
	grids := []struct {
		name string
		mk   func() *sparse.Stencil
	}{
		{"poisson2d", func() *sparse.Stencil { return poisson2D(64, 64) }},
		{"layered2d", func() *sparse.Stencil { return layered2D(64, 64) }},
		{"cart3d", func() *sparse.Stencil { return poisson3D(16, 16, 16) }},
		{"contrast1e3", func() *sparse.Stencil { return layeredContrast(64, 64, 1000) }},
		{"layered3d", func() *sparse.Stencil { return layered3D(16, 16, 40) }},
		{"contrast3d1e3", func() *sparse.Stencil { return contrast3D(16, 16, 40, 1000) }},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			a := g.mk()
			n := a.Rows()
			h, err := Build(a)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Bit-identical repeated cycles.
			r := make([]float64, n)
			fillRand(r, 5)
			var ref []float64
			for range 3 {
				z := make([]float64, n)
				h.Cycle(z, r)
				if ref == nil {
					ref = z
					continue
				}
				sameBits(t, g.name+" repeated cycle", z, ref)
			}
			b := make([]float64, n)
			fillRand(b, 77)
			_, st, err := sparse.SolveCGCtx(context.Background(), a, b, sparse.Options{Precond: sparse.PrecondMG, MG: h, Tol: 1e-10})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			t.Logf("%d levels, %d CG iterations", h.Levels(), st.Iterations)
			if st.Iterations > 25 {
				t.Fatalf("%d CG iterations, want <= 25", st.Iterations)
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
		if rel := norm2(r) / r0; rel > 1e-6 {
			t.Fatalf("%s: stationary geometric cycle reduced the residual only to %g in 30 iterations", name, rel)
		}
	}
}
