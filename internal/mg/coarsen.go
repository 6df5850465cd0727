package mg

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// csrArrays is a read-only CSR snapshot of a level operator, extracted via
// Each (row-major, sorted columns) — from the fine stencil's ascending-
// column walk or a coarse Galerkin CSR alike. The mg assembly kernels need
// per-row access, which the sparse package deliberately does not export.
type csrArrays struct {
	ptr []int32
	col []int32
	val []float64
}

func extractCSR(a matrix, mem *arena) csrArrays {
	ar := csrArrays{
		ptr: mem.i32(a.Rows() + 1),
		col: mem.i32cap(a.NNZ()),
		val: mem.f64cap(a.NNZ()),
	}
	a.Each(func(i, j int, v float64) {
		ar.ptr[i+1]++
		ar.col = append(ar.col, int32(j))
		ar.val = append(ar.val, v)
	})
	for i := 0; i < a.Rows(); i++ {
		ar.ptr[i+1] += ar.ptr[i]
	}
	mem.adoptI32(ar.col)
	mem.adoptF64(ar.val)
	return ar
}

func (a csrArrays) rows() int { return len(a.ptr) - 1 }

func (a csrArrays) diagonal(mem *arena) []float64 {
	d := mem.f64(a.rows())
	for i := range d {
		for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
			if int(a.col[k]) == i {
				d[i] = a.val[k]
				break
			}
		}
	}
	return d
}

// aggregateStrength builds the fine→coarse cell map by one greedy pairwise
// matching on coupling strength: the pass walks the cells in index order and
// joins every still-free cell with its most strongly coupled free neighbor,
// measured by the scaled off-diagonal |a_ij|/√(a_ii·a_jj) (the scaling makes
// couplings comparable across the orders-of-magnitude cell volume spread of
// graded meshes). Two-cell aggregates are the gentlest coarsening; the
// smoothed transfers approximate pairs far better than larger aggregates,
// and the deeper hierarchy stays cheap because each level still halves.
//
// Matching the matrix rather than the mesh is what handles the layer
// stack's heterogeneous anisotropy: a thin ILD cell couples hardest to its
// z-neighbors, a wide bulk cell to its in-plane neighbors, so the same
// sweep semi-coarsens z across the thin layers and the plane in the bulk —
// no global axis choice could do both. Walk order and tie-breaks (first
// strongest neighbor in CSR column order) are fixed, so the aggregation is
// a pure function of the matrix.
func aggregateStrength(a csrArrays, mem *arena) ([]int32, int) {
	n := a.rows()
	diag := a.diagonal(mem)
	agg := mem.i32(n)
	for i := range agg {
		agg[i] = -1
	}
	var nc int32
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := 0.0
		for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
			j := a.col[k]
			if int(j) == i || agg[j] >= 0 {
				continue
			}
			den := diag[i] * diag[j]
			if den <= 0 {
				continue
			}
			if w := math.Abs(a.val[k]) / math.Sqrt(den); w > bestW {
				bestW = w
				best = j
			}
		}
		agg[i] = nc
		if best >= 0 {
			agg[best] = nc
		}
		nc++
	}
	return agg, int(nc)
}

// sortInt32 is an insertion sort for the short per-row column lists the
// assembly accumulators produce (coarse stencils stay a few dozen wide
// thanks to prolongation filtering). sort.Slice on these tiny slices cost
// more in reflection overhead than the whole numeric triple product.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// rowAccumulator gathers one output row of a sparse product: a dense value
// array indexed by column plus the list of touched columns, flushed in
// sorted order so every assembled matrix has the canonical CSR layout
// without a global sort.
type rowAccumulator struct {
	acc     []float64
	seen    []bool
	touched []int32
}

// newRowAccumulator sizes the dense accumulator off the arena. The touched
// list stays on the heap: it is tiny (one stencil's width) and append-managed
// across thousands of flushes.
func newRowAccumulator(n int, mem *arena) *rowAccumulator {
	return &rowAccumulator{acc: mem.f64(n), seen: mem.bools(n)}
}

func (r *rowAccumulator) add(c int32, v float64) {
	if !r.seen[c] {
		r.seen[c] = true
		r.touched = append(r.touched, c)
	}
	r.acc[c] += v
}

// flush appends the accumulated row to (col, val) in ascending column
// order, dropping exact zeros, and resets the accumulator.
func (r *rowAccumulator) flush(col []int32, val []float64) ([]int32, []float64) {
	sortInt32(r.touched)
	for _, c := range r.touched {
		if v := r.acc[c]; v != 0 {
			col = append(col, c)
			val = append(val, v)
		}
		r.acc[c] = 0
		r.seen[c] = false
	}
	r.touched = r.touched[:0]
	return col, val
}

// transfer is a level's smoothed prolongation P, stored twice in CSR
// layout: by fine row (p*) for the prolongation x += P·e, and by coarse row
// (pt*) for the restriction b_c = Pᵀ·r. Both products walk their output
// rows with a fixed per-row summation order (see mulVecRaw).
type transfer struct {
	pPtr, pCol   []int32
	pVal         []float64
	ptPtr, ptCol []int32
	ptVal        []float64
}

// saOmega is the prolongation-smoothing damping 4/(3·λmax) applied to the
// Jacobi-scaled operator — the standard smoothed-aggregation choice, which
// damps the tentative prolongation's high-frequency content without
// overshooting on the upper spectrum.
const saOmega = 4.0 / 3.0

// smoothedProlongation builds P = (I − ω·D⁻¹A)·P_agg from the tentative
// piecewise-constant aggregation prolongation. Plain aggregation transfers
// represent smooth error so poorly that V-cycle convergence degrades with
// every added level; one damped-Jacobi smoothing pass fixes the
// approximation property and keeps the hierarchy's convergence rate
// mesh-independent. The rows of P follow A's sparsity (plus the diagonal),
// assembled deterministically through the sorted COO→CSR path.
func smoothedProlongation(a csrArrays, invDiag []float64, lmax float64, agg []int32, nc int, mem *arena) *transfer {
	n := len(invDiag)
	omega := saOmega / lmax
	p := csrArrays{ptr: mem.i32(n + 1), col: mem.i32cap(len(a.col) + n), val: mem.f64cap(len(a.val) + n)}
	acc := newRowAccumulator(nc, mem)
	for i := 0; i < n; i++ {
		acc.add(agg[i], 1)
		s := omega * invDiag[i]
		for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
			acc.add(agg[a.col[k]], -s*a.val[k])
		}
		p.col, p.val = acc.flush(p.col, p.val)
		p.ptr[i+1] = int32(len(p.col))
	}
	mem.adoptI32(p.col)
	mem.adoptF64(p.val)
	p = filterRows(p, mem)
	pt := transpose(p, nc, mem)
	return &transfer{
		pPtr: p.ptr, pCol: p.col, pVal: p.val,
		ptPtr: pt.ptr, ptCol: pt.col, ptVal: pt.val,
	}
}

// transpose flips an n×nc CSR to nc×n by counting sort: scatter in fine-row
// order lands every transposed row with ascending columns, no sort needed.
func transpose(p csrArrays, nc int, mem *arena) csrArrays {
	nnz := len(p.col)
	pt := csrArrays{
		ptr: mem.i32(nc + 1),
		col: mem.i32(nnz),
		val: mem.f64(nnz),
	}
	for _, c := range p.col {
		pt.ptr[c+1]++
	}
	for c := 0; c < nc; c++ {
		pt.ptr[c+1] += pt.ptr[c]
	}
	next := mem.i32(nc)
	copy(next, pt.ptr[:nc])
	for i := 0; i < p.rows(); i++ {
		for k := p.ptr[i]; k < p.ptr[i+1]; k++ {
			c := p.col[k]
			pt.col[next[c]] = int32(i)
			pt.val[next[c]] = p.val[k]
			next[c]++
		}
	}
	return pt
}

// galerkin assembles the coarse operator A_c = Pᵀ·A·P as two sparse
// products over a dense row accumulator. Assembly is sequential (it runs
// once per hierarchy build) and every row is flushed in sorted column
// order, so the coarse matrix is independent of everything but the fine
// matrix and the aggregation.
func galerkin(a csrArrays, t *transfer, nc int, mem *arena) (*sparse.CSR, error) {
	// Phase 1: W = A·P, each fine row computed exactly once. Folding this
	// into the coarse-row loop instead would recompute row i of A·P for
	// every coarse row whose restriction touches i — roughly a |P row|-fold
	// (~10×) blowup that dominated hierarchy construction.
	n := a.rows()
	acc := newRowAccumulator(nc, mem)
	w := csrArrays{ptr: mem.i32(n + 1), col: mem.i32cap(3 * len(a.col)), val: mem.f64cap(3 * len(a.val))}
	for i := 0; i < n; i++ {
		for ka := a.ptr[i]; ka < a.ptr[i+1]; ka++ {
			j := a.col[ka]
			av := a.val[ka]
			for kj := t.pPtr[j]; kj < t.pPtr[j+1]; kj++ {
				acc.add(t.pCol[kj], av*t.pVal[kj])
			}
		}
		w.col, w.val = acc.flush(w.col, w.val)
		w.ptr[i+1] = int32(len(w.col))
	}
	mem.adoptI32(w.col)
	mem.adoptF64(w.val)
	// Phase 2: A_c = Pᵀ·W, one coarse row at a time. The value and index
	// arrays are adopted by the returned CSR, which the hierarchy retains —
	// they recycle with the rest of the arena when the hierarchy is donated
	// to a later Build.
	rowPtr := mem.ints(nc + 1)
	col := mem.i32cap(len(a.col))
	val := mem.f64cap(len(a.val))
	for ic := 0; ic < nc; ic++ {
		for kf := t.ptPtr[ic]; kf < t.ptPtr[ic+1]; kf++ {
			i := t.ptCol[kf]
			pv := t.ptVal[kf]
			for kw := w.ptr[i]; kw < w.ptr[i+1]; kw++ {
				acc.add(w.col[kw], pv*w.val[kw])
			}
		}
		col, val = acc.flush(col, val)
		rowPtr[ic+1] = len(col)
	}
	mem.adoptI32(col)
	mem.adoptF64(val)
	colIdx := mem.ints(len(col))
	for k, c := range col {
		colIdx[k] = int(c)
	}
	return sparse.NewCSRFromSorted(nc, nc, rowPtr, colIdx, val)
}

// pDropTol filters the smoothed prolongation: entries below pDropTol times
// the row's largest magnitude are dropped and the survivors rescaled to
// keep the row sum (constants stay exactly representable). Smoothing widens
// P at every level and the Galerkin stencils compound on top — without
// filtering, deep coarse levels densify and hierarchy construction goes
// quadratic. Filtering P rather than the coarse operator keeps A_c a true
// Galerkin product PᵀAP, so positive definiteness is inherited instead of
// maintained by hand. (Sparsifying A_c directly with |a_ij| lumped into the
// diagonals keeps SPD but destroys the row sums the aggregation nullspace
// relies on — measured 10× iteration blow-up on the stack systems — so the
// prolongation is the only place filtering is safe.) The value trades
// transfer quality against coarse-stencil growth; 0.02 minimizes total
// build+solve time across the reference resolutions.
const pDropTol = 0.02

// filterRows applies pDropTol row filtering (see above) in place on
// freshly extracted prolongation arrays.
func filterRows(p csrArrays, mem *arena) csrArrays {
	out := csrArrays{ptr: mem.i32(len(p.ptr)), col: mem.i32cap(len(p.col)), val: mem.f64cap(len(p.val))}
	for i := 0; i < p.rows(); i++ {
		lo, hi := p.ptr[i], p.ptr[i+1]
		var wmax, sum float64
		for k := lo; k < hi; k++ {
			if w := math.Abs(p.val[k]); w > wmax {
				wmax = w
			}
			sum += p.val[k]
		}
		cut := pDropTol * wmax
		var kept float64
		for k := lo; k < hi; k++ {
			if math.Abs(p.val[k]) >= cut {
				kept += p.val[k]
			}
		}
		scale := 1.0
		if kept != 0 {
			scale = sum / kept
		}
		for k := lo; k < hi; k++ {
			if math.Abs(p.val[k]) >= cut {
				out.col = append(out.col, p.col[k])
				out.val = append(out.val, scale*p.val[k])
			}
		}
		out.ptr[i+1] = int32(len(out.col))
	}
	mem.adoptI32(out.col)
	mem.adoptF64(out.val)
	return out
}

// denseFrom expands the (small) coarsest matrix for direct factorization.
func denseFrom(a matrix, mem *arena) *linalg.Matrix {
	m := linalg.NewMatrixWithData(a.Rows(), a.Cols(), mem.f64(a.Rows()*a.Cols()))
	a.Each(func(i, j int, v float64) {
		m.Set(i, j, v)
	})
	return m
}
