package mg

import (
	"testing"

	"repro/internal/sparse"
)

// layeredContrast is layered2D with a tunable anisotropy contrast: every
// contrast produces the same sparsity pattern (the 5-point stencil never
// changes) but different operator values — the sweep-rebuild scenario.
func layeredContrast(nx, ny int, contrast float64) (*sparse.CSR, []int) {
	n := nx * ny
	kxy := func(iy int) (float64, float64) {
		if iy >= ny/2 {
			return 1, contrast
		}
		return contrast, 1
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
				diag[i] += 2 * ky
			}
		}
	}
	for i, d := range diag {
		coo.Add(i, i, d)
	}
	return coo.ToCSR(), []int{nx, ny}
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
	a1, dims := layeredContrast(nx, ny, 100)
	a2, _ := layeredContrast(nx, ny, 37)
	mk := func(a *sparse.CSR, prev *Hierarchy) *Hierarchy {
		t.Helper()
		h, err := build(a, dims, Options{Prev: prev}, geometric)
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
	aSmall, dimsSmall := layeredContrast(24, 24, 100)
	donor, err := build(aSmall, dimsSmall, Options{}, false)
	if err != nil {
		t.Fatalf("Build small: %v", err)
	}
	aBig, dimsBig := layeredContrast(40, 40, 100)
	fresh, err := Build(aBig, dimsBig, Options{})
	if err != nil {
		t.Fatalf("fresh Build big: %v", err)
	}
	re, err := Build(aBig, dimsBig, Options{Prev: donor})
	if err != nil {
		t.Fatalf("recycled Build big: %v", err)
	}
	sameBits(t, "cross-topology rebuild cycle", cycleBits(t, re, 1600, 3), cycleBits(t, fresh, 1600, 3))
}
