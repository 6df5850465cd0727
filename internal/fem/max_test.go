package fem

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// sameStats compares two solves' Stats bit for bit, leaving out the wall
// times, which no two solves share.
func sameStats(got, want sparse.Stats) bool {
	got.Wall, got.Factor, want.Wall, want.Factor = 0, 0, 0, 0
	return got == want && math.Float64bits(got.Residual) == math.Float64bits(want.Residual)
}

// poisonPool leaves at least eight vectors of sc's unknown count in its
// pool, all NaN, so a solve that read a grabbed vector before writing it
// would show it. The stale vectors a converged solve leaves there are
// residuals and directions near zero, which could hide such a read.
func poisonPool(sc *SolveContext) {
	n := sc.asm.op.Rows()
	vs := make([][]float64, 8)
	for i := range vs {
		vs[i] = sc.pool.Grab(n)
		for j := range vs[i] {
			vs[i][j] = math.NaN()
		}
	}
	sc.pool.Release(vs...)
}

// TestSolveStackMaxBitIdentical: SolveStackMaxWith reports exactly the
// maximum and Stats of SolveStackWith's field, on the direct solves of the
// 1×, 2× and 4× meshes and the multigrid-preconditioned CG of the 2× mesh.
// Each runs on one context whose pool holds stale vectors, poisoned with
// NaN: after a field solve of another radius, after a max solve, which
// hands its solution back, and after a solve of another shape. CG starts
// from x = 0, so a grabbed solution vector it did not clear would poison
// its result.
func TestSolveStackMaxBitIdentical(t *testing.T) {
	t.Cleanup(asideIdle())
	mgRes := DefaultResolution().Refine(2)
	mgRes.Precond = sparse.PrecondMG
	sc := NewSolveContext()
	defer sc.Close()
	for _, tc := range []struct {
		name       string
		res, other Resolution
	}{
		{"1x direct", DefaultResolution(), DefaultResolution().Refine(2)},
		{"2x direct", DefaultResolution().Refine(2), DefaultResolution()},
		{"4x direct", DefaultResolution().Refine(4), DefaultResolution()},
		{"2x multigrid", mgRes, DefaultResolution()},
	} {
		maxSolve := func(after string, rUM float64) {
			t.Helper()
			s := fig4(t, rUM)
			want := freshSolve(t, s, tc.res)
			wantMax, _, _ := want.MaxT()
			poisonPool(sc)
			got, st, err := SolveStackMaxWith(context.Background(), sc, s, tc.res)
			if err != nil {
				t.Fatalf("%s, r=%g µm after %s: %v", tc.name, rUM, after, err)
			}
			if math.Float64bits(got) != math.Float64bits(wantMax) {
				t.Errorf("%s, r=%g µm after %s: max %v, the field's is %v", tc.name, rUM, after, got, wantMax)
			}
			if !sameStats(st, want.Stats) {
				t.Errorf("%s, r=%g µm after %s: stats %+v, the field solve's %+v", tc.name, rUM, after, st, want.Stats)
			}
		}
		if _, err := SolveStackWith(context.Background(), sc, fig4(t, 5), tc.res); err != nil {
			t.Fatal(err)
		}
		maxSolve("a field solve", 10)
		maxSolve("a max solve", 20)
		if _, err := SolveStackWith(context.Background(), sc, fig4(t, 5), tc.other); err != nil {
			t.Fatal(err)
		}
		maxSolve("a solve of another shape", 15)
	}
}

// TestReferenceModelAllocs pins the bytes a warm 2× ReferenceModel solve
// allocates: its problem and mesh, the assembly's bookkeeping and the
// Result, with no solution vector or field. It measured 4744 B on amd64
// (59480 B while every solve built a field); the bound is that plus 25%.
func TestReferenceModelAllocs(t *testing.T) {
	t.Cleanup(asideIdle())
	s := fig4(t, 10)
	m := ReferenceModel{Res: DefaultResolution().Refine(2)}
	for range 3 {
		if _, err := m.SolveCtx(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := m.SolveCtx(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perSolve := (after.TotalAlloc - before.TotalAlloc) / runs; perSolve > 4744*5/4 {
		t.Errorf("a warm 2x reference solve allocates %d B, want at most %d", perSolve, 4744*5/4)
	}
}
