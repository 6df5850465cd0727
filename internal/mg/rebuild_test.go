package mg

import (
	"testing"

	"repro/internal/sparse"
)

// layeredContrast assembles an anisotropic diffusion operator whose strong
// coupling direction flips between the lower and upper half of the grid —
// the same heterogeneity pattern as a via stack's thin-layer/bulk mix, which
// defeats any global semi-coarsening axis choice. Face coefficients are
// harmonic means of the two cells' conductivities (standard finite-volume
// form); the bottom row is held at a Dirichlet sink so the operator is
// positive definite. Every contrast produces the same stencil shape but
// different operator values — the sweep-rebuild scenario.
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

// cycleBits applies one V-cycle to a fixed pseudo-random residual and
// returns the result for bitwise comparison.
func cycleBits(t *testing.T, h *Hierarchy, n int, seed uint64) []float64 {
	t.Helper()
	r := make([]float64, n)
	fillRand(r, seed)
	z := make([]float64, n)
	h.Cycle(z, r, nil)
	return z
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

// checkRebuild is the rebuild equivalence property: a hierarchy rebuilt
// through a donated predecessor's arena (Options.Prev) must be
// indistinguishable — level sizes and cycle output bits — from one built
// from nothing on the same matrix. Two recycled generations are checked so
// the second rebuild runs entirely off the free lists.
func checkRebuild(t *testing.T, geometric bool) {
	t.Helper()
	nx, ny := 48, 48
	n := nx * ny
	a1 := layeredContrast(nx, ny, 100)
	a2 := layeredContrast(nx, ny, 37)
	mk := func(a *sparse.Stencil, prev *Hierarchy) *Hierarchy {
		t.Helper()
		h, err := build(a, Options{Prev: prev}, geometric)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fresh2 := mk(a2, nil)
	re2 := mk(a2, mk(a1, nil))
	if got, want := re2.LevelSizes(), fresh2.LevelSizes(); len(got) != len(want) {
		t.Fatalf("recycled level sizes %v, fresh %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("recycled level sizes %v, fresh %v", got, want)
			}
		}
	}
	sameBits(t, "rebuild gen 1 cycle", cycleBits(t, re2, n, 7), cycleBits(t, fresh2, n, 7))

	// Second generation: every allocation site should now find a recycled
	// array of exactly the right size.
	fresh1 := mk(a1, nil)
	re1 := mk(a1, re2)
	sameBits(t, "rebuild gen 2 cycle", cycleBits(t, re1, n, 11), cycleBits(t, fresh1, n, 11))
}

// TestRebuildMatchesFreshBuild checks rebuild equivalence for the
// smoothed-aggregation Galerkin hierarchy.
func TestRebuildMatchesFreshBuild(t *testing.T) { checkRebuild(t, false) }

// TestGeometricRebuildMatchesFreshBuild checks it for the geometric one.
func TestGeometricRebuildMatchesFreshBuild(t *testing.T) { checkRebuild(t, true) }

// TestRebuildAcrossTopologyChange donates a hierarchy of a different size
// and kind: the arena must serve what fits and allocate the rest, still
// bit-identical.
func TestRebuildAcrossTopologyChange(t *testing.T) {
	donor, err := build(layeredContrast(24, 24, 100), Options{}, false)
	if err != nil {
		t.Fatalf("Build small: %v", err)
	}
	aBig := layeredContrast(40, 40, 100)
	fresh, err := Build(aBig, Options{})
	if err != nil {
		t.Fatalf("fresh Build big: %v", err)
	}
	re, err := Build(aBig, Options{Prev: donor})
	if err != nil {
		t.Fatalf("recycled Build big: %v", err)
	}
	sameBits(t, "cross-topology rebuild cycle", cycleBits(t, re, 1600, 3), cycleBits(t, fresh, 1600, 3))
}
