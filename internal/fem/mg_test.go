package fem

import (
	"testing"

	"repro/internal/sparse"
)

// TestMGIterationsMeshIndependent asserts the point of the multigrid
// preconditioner: CG iteration counts stay within a constant band as the
// reference grid refines, instead of growing with the mesh. The geometric
// hierarchy the axisymmetric grid gets takes 13/14/14 iterations at
// 2×/4×/8×; 16 is the band.
func TestMGIterationsMeshIndependent(t *testing.T) {
	s := fig4(t, 10)
	for _, f := range []int{2, 4, 8} {
		res := DefaultResolution().Refine(f)
		res.Precond = sparse.PrecondMG
		sol, err := SolveStack(s, res)
		if err != nil {
			t.Fatalf("refine %d: %v", f, err)
		}
		if sol.Stats.Precond != sparse.PrecondMG {
			t.Fatalf("refine %d: ran %v, want multigrid", f, sol.Stats.Precond)
		}
		if sol.Stats.Levels < 2 {
			t.Fatalf("refine %d: hierarchy has %d levels", f, sol.Stats.Levels)
		}
		if sol.Stats.Iterations > 16 {
			t.Errorf("refine %d: %d CG iterations, want <= 16 (mesh-independent band)",
				f, sol.Stats.Iterations)
		}
	}
}

// TestMGBeatsSSORIterations pins the headline speedup: at twice the
// default reference resolution, multigrid-preconditioned CG must need at
// least 3x fewer iterations than SSOR (in practice the gap is ~40x).
func TestMGBeatsSSORIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("SSOR baseline at 2x default resolution is slow")
	}
	s := fig4(t, 10)

	res := DefaultResolution().Refine(2)
	res.Precond = sparse.PrecondMG
	mgSol, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}

	res.Precond = sparse.PrecondSSOR
	ssorSol, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}

	mgIt, ssorIt := mgSol.Stats.Iterations, ssorSol.Stats.Iterations
	if mgIt == 0 || ssorIt < 3*mgIt {
		t.Errorf("MG used %d iterations, SSOR %d; want SSOR >= 3x MG", mgIt, ssorIt)
	}

	// Both converged to the same tolerance; the answers must agree closely.
	mgMax, _, _ := mgSol.MaxT()
	ssorMax, _, _ := ssorSol.MaxT()
	if diff := mgMax - ssorMax; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("MG max ΔT %g vs SSOR %g", mgMax, ssorMax)
	}
}

// TestMGAutoSelection checks the default-policy threshold: small systems
// keep the single-level preconditioners, large ones upgrade to multigrid
// without the caller asking.
func TestMGAutoSelection(t *testing.T) {
	s := fig4(t, 10)
	for _, tc := range []struct {
		refine int
		wantMG bool
	}{{1, false}, {4, true}} {
		sol, err := SolveStack(s, coarse().Refine(tc.refine))
		if err != nil {
			t.Fatalf("refine %d: %v", tc.refine, err)
		}
		n := len(sol.RCenters) * len(sol.ZCenters)
		if (n >= mgAutoThreshold) != tc.wantMG {
			t.Fatalf("refine %d: n = %d does not probe the %d-unknown threshold as intended",
				tc.refine, n, mgAutoThreshold)
		}
		if got := sol.Stats.Precond == sparse.PrecondMG; got != tc.wantMG {
			t.Errorf("refine %d (n = %d): auto-selected %v, want multigrid = %v",
				tc.refine, n, sol.Stats.Precond, tc.wantMG)
		}
	}
}

// TestMGExplicitFallsBackWhenTiny: an explicit multigrid request on a grid
// too small to coarsen falls back to the default preconditioner instead of
// failing the solve.
func TestMGExplicitFallsBackWhenTiny(t *testing.T) {
	s := fig4(t, 10)
	res := coarse()
	res.RadialVia, res.RadialLiner, res.RadialOuter = 1, 1, 2
	res.AxialPerLayer, res.AxialMin, res.Bulk = 1, 1, 2
	res.Precond = sparse.PrecondMG
	sol, err := SolveStack(s, res)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Precond == sparse.PrecondMG {
		t.Errorf("tiny grid still reports multigrid (%v)", sol.Stats.Precond)
	}
}

// TestTransientMGMatchesSSOR runs the same implicit integration under the
// multigrid and SSOR preconditioners. The hierarchy is built once on the
// step matrix and reused across steps; both runs must land on the same
// trajectory endpoint.
func TestTransientMGMatchesSSOR(t *testing.T) {
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildAxiProblem(s, coarse().Refine(2))
	if err != nil {
		t.Fatal(err)
	}
	const dt, steps = 1e-4, 20
	mgTr, err := SolveAxiTransient(p, dt, steps, sparse.Options{Tol: 1e-11, Precond: sparse.PrecondMG})
	if err != nil {
		t.Fatal(err)
	}
	if mgTr.Stats.Precond != sparse.PrecondMG || mgTr.Stats.Levels < 2 {
		t.Fatalf("transient stats %v: multigrid did not run", mgTr.Stats)
	}
	ssorTr, err := SolveAxiTransient(p, dt, steps, sparse.Options{Tol: 1e-11, Precond: sparse.PrecondSSOR})
	if err != nil {
		t.Fatal(err)
	}
	got := mgTr.MaxT[len(mgTr.MaxT)-1]
	want := ssorTr.MaxT[len(ssorTr.MaxT)-1]
	if diff := got - want; diff > 1e-8 || diff < -1e-8 {
		t.Errorf("transient final max ΔT: MG %g vs SSOR %g", got, want)
	}
}
