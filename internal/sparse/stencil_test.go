package sparse

import (
	"math/rand"
	"strings"
	"testing"
)

// gridStencil assembles a structured-grid conduction operator the way the
// fem package does: one strictly positive conductance per axis-neighbor
// pair, accumulated into both cells' diagonals, plus a positive
// Dirichlet-style diagonal boost — SPD with a full nearest-neighbor stencil.
func gridStencil(dims []int, seed int64) *Stencil {
	rng := rand.New(rand.NewSource(seed))
	nd := [3]int{1, 1, 1}
	n := 1
	for i, d := range dims {
		nd[i] = d
		n *= d
	}
	stride := [3]int{1, nd[0], nd[0] * nd[1]}
	diag := make([]float64, n)
	var off [3][]float64
	for d := range off {
		if nd[d] > 1 {
			off[d] = make([]float64, n)
		}
	}
	for i := 0; i < n; i++ {
		coord := [3]int{i % nd[0], i / nd[0] % nd[1], i / (nd[0] * nd[1])}
		for d := 0; d < 3; d++ {
			if coord[d]+1 >= nd[d] {
				continue
			}
			g := 0.1 + rng.Float64()
			diag[i] += g
			off[d][i] = -g
			diag[i+stride[d]] += g
		}
		diag[i] += 0.5 + rng.Float64()
	}
	st, err := NewStencilCoeffs(dims, diag, off)
	if err != nil {
		panic(err)
	}
	return st
}

// stencilCSR assembles the CSR holding the stencil's entries from its
// ascending-column walk — the reference every stencil kernel must match.
func stencilCSR(st *Stencil) *CSR {
	n := st.Rows()
	rowPtr := make([]int, n+1)
	var colIdx []int
	var val []float64
	st.Each(func(i, j int, v float64) {
		rowPtr[i+1]++
		colIdx = append(colIdx, j)
		val = append(val, v)
	})
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	m, err := NewCSRFromSorted(n, n, rowPtr, colIdx, val)
	if err != nil {
		panic(err)
	}
	return m
}

var stencilDims = [][]int{
	{9},
	{7, 5},
	{1, 6},
	{6, 1},
	{4, 3, 5},
	{1, 4, 5},
	{4, 1, 5},
	{3, 4, 1},
	{1, 1, 7},
}

// The stencil operator must reproduce the CSR product bit for bit — same
// values, same accumulation order — for every grid shape, including axes
// collapsed to one cell, and for every kernel the solvers call.
func TestStencilMatchesCSRBitIdentical(t *testing.T) {
	for _, dims := range stencilDims {
		st := gridStencil(dims, 17)
		a := stencilCSR(st)
		if a.NNZ() != st.NNZ() {
			t.Fatalf("dims %v: walk has %d entries, NNZ reports %d", dims, a.NNZ(), st.NNZ())
		}
		n := a.Rows()
		x := randomVec(n, 5)
		b := randomVec(n, 6)
		w := randomVec(n, 7)

		yc := make([]float64, n)
		ys := make([]float64, n)
		a.SpanMulVec(x, yc, 0, n)
		st.SpanMulVec(x, ys, 0, n)
		for i := range yc {
			if yc[i] != ys[i] {
				t.Fatalf("dims %v: SpanMulVec differs at %d: %x vs %x", dims, i, yc[i], ys[i])
			}
		}

		ac := append([]float64(nil), b...)
		as := append([]float64(nil), b...)
		a.SpanMulVecAdd(x, ac, 0, n)
		st.SpanMulVecAdd(x, as, 0, n)
		for i := range ac {
			if ac[i] != as[i] {
				t.Fatalf("dims %v: SpanMulVecAdd differs at %d", dims, i)
			}
		}

		dc := a.SpanMulVecDot(x, yc, w, 0, n)
		ds := st.SpanMulVecDot(x, ys, w, 0, n)
		if dc != ds {
			t.Fatalf("dims %v: SpanMulVecDot differs: %x vs %x", dims, dc, ds)
		}

		rc := make([]float64, n)
		rs := make([]float64, n)
		a.SpanResidual(x, b, rc, 0, n)
		st.SpanResidual(x, b, rs, 0, n)
		for i := range rc {
			if rc[i] != rs[i] {
				t.Fatalf("dims %v: SpanResidual differs at %d", dims, i)
			}
		}

		diagC := a.DiagonalInto(make([]float64, n))
		diagS := st.DiagonalInto(make([]float64, n))
		absC := a.AbsRowSumsInto(make([]float64, n))
		absS := st.AbsRowSumsInto(make([]float64, n))
		for i := 0; i < n; i++ {
			if diagC[i] != diagS[i] {
				t.Fatalf("dims %v: DiagonalInto differs at %d", dims, i)
			}
			if absC[i] != absS[i] {
				t.Fatalf("dims %v: AbsRowSumsInto differs at %d: %x vs %x", dims, i, absC[i], absS[i])
			}
		}
	}
}

// The pool's parallel kernels over a Stencil must stay bit-identical to the
// sequential CSR product for any worker count (same chunk grid, same
// per-chunk evaluation order).
func TestStencilParallelBitIdenticalAcrossWorkers(t *testing.T) {
	dims := []int{13, 11, 7} // 1001 rows: several 256-row chunks plus a ragged tail
	st := gridStencil(dims, 23)
	a := stencilCSR(st)
	n := a.Rows()
	x := randomVec(n, 8)
	b := randomVec(n, 9)
	ref := make([]float64, n)
	a.SpanMulVec(x, ref, 0, n)
	refR := make([]float64, n)
	a.SpanResidual(x, b, refR, 0, n)
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		y := make([]float64, n)
		r := make([]float64, n)
		p.MulVecOp(st, x, y)
		p.ResidualOp(st, x, b, r)
		for i := 0; i < n; i++ {
			if y[i] != ref[i] {
				t.Fatalf("workers=%d: MulVecOp differs at %d", workers, i)
			}
			if r[i] != refR[i] {
				t.Fatalf("workers=%d: ResidualOp differs at %d", workers, i)
			}
		}
		p.Close()
	}
}

func TestNewStencilCoeffsRejectsBadShapes(t *testing.T) {
	diag := make([]float64, 6)
	full := make([]float64, 6)
	for _, tc := range []struct {
		name string
		dims []int
		off  [3][]float64
		want string
	}{
		{"no axes", nil, [3][]float64{}, "1-3 grid axes"},
		{"zero extent", []int{6, 0}, [3][]float64{full}, "invalid grid"},
		{"cell mismatch", []int{3, 3}, [3][]float64{full, full}, "cells"},
		{"short axis", []int{3, 2}, [3][]float64{full, full[:4]}, "axis-1"},
		{"extent-1 axis with coefficients", []int{6, 1}, [3][]float64{full, full}, "extent 1"},
	} {
		if _, err := NewStencilCoeffs(tc.dims, diag, tc.off); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// End to end: CG over the Stencil must return bit-identical solutions and
// iteration counts to CG over the CSR built from its entry walk, under every
// single-level preconditioner — SSOR's triangular sweeps included.
func TestSolveCGStencilMatchesCSR(t *testing.T) {
	st := gridStencil([]int{9, 8, 5}, 41)
	a := stencilCSR(st)
	b := randomVec(a.Rows(), 11)
	for _, pk := range []PrecondKind{PrecondNone, PrecondJacobi, PrecondChebyshev, PrecondSSOR} {
		xc, sc, err := SolveCG(a, b, Options{Precond: pk})
		if err != nil {
			t.Fatalf("%v csr: %v", pk, err)
		}
		xs, ss, err := SolveCG(st, b, Options{Precond: pk})
		if err != nil {
			t.Fatalf("%v stencil: %v", pk, err)
		}
		if sc.Iterations != ss.Iterations {
			t.Fatalf("%v: iteration count differs: %d vs %d", pk, sc.Iterations, ss.Iterations)
		}
		for i := range xc {
			if xc[i] != xs[i] {
				t.Fatalf("%v: solution differs at %d: %x vs %x", pk, i, xc[i], xs[i])
			}
		}
	}
}
