package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// ErrNotConverged is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("sparse: iterative solver did not converge")

// Options configures the iterative solvers. The zero value selects sensible
// defaults (rtol 1e-10, 10·n iterations, Jacobi preconditioning, one
// worker).
type Options struct {
	// Tol is the relative residual tolerance ||r||/||b||. Zero means 1e-10.
	Tol float64
	// MaxIter caps the iteration count. Zero means 10·n (at least 100).
	MaxIter int
	// Precond selects the preconditioner for PCG. The zero value
	// (PrecondDefault) resolves to Jacobi, or to Chebyshev when the solve
	// runs on more than one worker (SSOR-class preconditioners are
	// inherently sequential; Chebyshev parallelizes).
	Precond PrecondKind
	// X0 optionally supplies an initial guess (copied, not modified).
	X0 []float64
	// Workers is the kernel worker count of the solve; values <= 1 run
	// sequentially. With a fixed preconditioner, results are bit-identical
	// for any value: all reductions use fixed chunk boundaries combined in
	// chunk order. Ignored when Pool is set.
	Workers int
	// Pool optionally supplies a reusable worker pool, e.g. one pool shared
	// across the many linear solves of a transient integration. The caller
	// retains ownership and must Close it.
	Pool *Pool
	// MG supplies the multigrid hierarchy applied when Precond is PrecondMG.
	// It must have been built for the same matrix passed to the solver
	// (enforced by a size check). The solvers never build a hierarchy
	// themselves: construction needs the grid structure behind the matrix,
	// which the matrix alone does not carry — internal/fem builds and
	// attaches hierarchies for its structured finite-volume grids.
	MG MGSolver
}

// MGSolver is the hook through which a multigrid hierarchy (internal/mg)
// plugs into the iterative solvers as a preconditioner without this package
// importing it. Implementations must be fixed linear SPD operators —
// CG's convergence theory assumes the preconditioner does not change
// between iterations — and deterministic for any pool worker count.
type MGSolver interface {
	// Cycle applies one multigrid cycle approximating A⁻¹·r into z, running
	// its kernels on pool p (nil = sequential). z and r have Size() elements.
	Cycle(z, r []float64, p *Pool)
	// Levels reports the hierarchy depth (≥ 1).
	Levels() int
	// Size reports the fine-grid unknown count the hierarchy was built for.
	Size() int
}

// PrecondKind enumerates the available preconditioners.
type PrecondKind int

const (
	// PrecondDefault lets the caller of the solver pick; the solvers in this
	// package treat it as Jacobi.
	PrecondDefault PrecondKind = iota
	// PrecondJacobi scales by the inverse diagonal. Cheap and robust for
	// the strongly diagonal heat-conduction systems in this repo.
	PrecondJacobi
	// PrecondNone runs the unpreconditioned method.
	PrecondNone
	// PrecondSSOR applies a symmetric successive-over-relaxation sweep
	// (omega = 1, i.e. symmetric Gauss-Seidel) as the preconditioner. Its
	// triangular solves are inherently sequential.
	PrecondSSOR
	// PrecondChebyshev applies a fixed-degree Chebyshev polynomial in the
	// Jacobi-scaled matrix. Every operation is a matrix product or an
	// element-wise update, so it parallelizes across workers and stays
	// bit-identical for any worker count.
	PrecondChebyshev
	// PrecondMG applies one V-cycle of a geometric multigrid hierarchy
	// supplied via Options.MG. On the structured finite-volume grids of this
	// repository the CG iteration count becomes essentially mesh-independent,
	// which is what makes fine-resolution reference solves tractable. Like
	// Chebyshev, every operation is a matrix product, transfer, or
	// element-wise update on a fixed chunk grid, so solves stay bit-identical
	// for any worker count.
	PrecondMG
)

func (p PrecondKind) String() string {
	switch p {
	case PrecondDefault:
		return "default"
	case PrecondJacobi:
		return "jacobi"
	case PrecondNone:
		return "none"
	case PrecondSSOR:
		return "ssor"
	case PrecondChebyshev:
		return "chebyshev"
	case PrecondMG:
		return "multigrid"
	default:
		return fmt.Sprintf("PrecondKind(%d)", int(p))
	}
}

// ParsePrecond converts a command-line spelling into a PrecondKind.
// "auto" and "default" select PrecondDefault (the caller's policy decides);
// "mg" and "multigrid" both select PrecondMG.
func ParsePrecond(s string) (PrecondKind, error) {
	switch s {
	case "auto", "default", "":
		return PrecondDefault, nil
	case "jacobi":
		return PrecondJacobi, nil
	case "none":
		return PrecondNone, nil
	case "ssor":
		return PrecondSSOR, nil
	case "chebyshev":
		return PrecondChebyshev, nil
	case "mg", "multigrid":
		return PrecondMG, nil
	}
	return PrecondDefault, fmt.Errorf("sparse: unknown preconditioner %q (want auto, jacobi, none, ssor, chebyshev or mg)", s)
}

// Stats reports what an iterative solve did.
type Stats struct {
	// Iterations actually performed.
	Iterations int
	// Residual is the final relative residual.
	Residual float64
	// Precond is the preconditioner that actually ran (PrecondDefault is
	// resolved to the concrete kind before the solve starts).
	Precond PrecondKind
	// Wall is the wall-clock duration of the solve (for a transient
	// integration, the sum over all steps).
	Wall time.Duration
	// Workers is the kernel worker count the solve ran on (1 = sequential).
	Workers int
	// Levels is the multigrid hierarchy depth when Precond is PrecondMG,
	// zero otherwise.
	Levels int
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d iterations, residual %.3g, precond %v", s.Iterations, s.Residual, s.Precond)
	if s.Levels > 0 {
		out += fmt.Sprintf(" (%d levels)", s.Levels)
	}
	if s.Workers > 1 {
		out += fmt.Sprintf(", %d workers", s.Workers)
	}
	return out
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return 1e-10
}

func (o Options) maxIter(n int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	if n < 10 {
		return 100
	}
	return 10 * n
}

type preconditioner interface {
	apply(z, r []float64)
}

// releaser is implemented by preconditioners whose workspace came from a
// pool's scratch free-list; the solver releases them when the solve ends.
type releaser interface {
	release()
}

type identityPrecond struct{}

func (identityPrecond) apply(z, r []float64) { copy(z, r) }

type jacobiPrecond struct {
	invDiag []float64
	pool    *Pool
}

func newJacobi(a Operator, pl *Pool) (*jacobiPrecond, error) {
	inv := a.DiagonalInto(pl.Grab(a.Rows()))
	for i, v := range inv {
		if v == 0 {
			pl.Release(inv)
			return nil, fmt.Errorf("sparse: jacobi preconditioner: zero diagonal at row %d", i)
		}
		inv[i] = 1 / v
	}
	return &jacobiPrecond{invDiag: inv, pool: pl}, nil
}

func (p *jacobiPrecond) release() { p.pool.Release(p.invDiag) }

func (p *jacobiPrecond) apply(z, r []float64) {
	for i := range r {
		z[i] = r[i] * p.invDiag[i]
	}
}

// ssorPrecond implements M = (D+L) D^-1 (D+U) with omega = 1.
type ssorPrecond struct {
	a    triangular
	diag []float64
	pool *Pool
}

// triangular is what SSOR needs beyond an Operator: the forward sweep
// (D+L)·z = r and the in-place backward sweep (D+U)·z = z, each row
// subtracting its strictly lower (upper) entries in ascending column order
// before dividing by d. *CSR and *Stencil implement it with the same
// per-row order, so SSOR over either gives bit-identical results.
type triangular interface {
	Operator
	lowerSolve(z, r, d []float64)
	upperSolve(z, d []float64)
}

// newSSOR builds the SSOR preconditioner. Its sweeps are inherently
// sequential and need the operator's triangles, which the CSR and the
// stencil expose.
func newSSOR(op Operator, pl *Pool) (*ssorPrecond, error) {
	a, ok := op.(triangular)
	if !ok {
		return nil, fmt.Errorf("sparse: ssor preconditioner needs a *CSR or *Stencil operator, got %T", op)
	}
	d := a.DiagonalInto(pl.Grab(a.Rows()))
	for i, v := range d {
		if v == 0 {
			pl.Release(d)
			return nil, fmt.Errorf("sparse: ssor preconditioner: zero diagonal at row %d", i)
		}
	}
	return &ssorPrecond{a: a, diag: d, pool: pl}, nil
}

func (p *ssorPrecond) release() { p.pool.Release(p.diag) }

func (p *ssorPrecond) apply(z, r []float64) {
	d := p.diag
	p.a.lowerSolve(z, r, d)
	// Scale by D: y = D·y.
	for i := range z {
		z[i] *= d[i]
	}
	p.a.upperSolve(z, d)
}

// lowerSolve implements triangular.
func (m *CSR) lowerSolve(z, r, d []float64) {
	for i := 0; i < m.rows; i++ {
		s := r[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if j := m.colIdx[k]; j < i {
				s -= m.val[k] * z[j]
			}
		}
		z[i] = s / d[i]
	}
}

// upperSolve implements triangular.
func (m *CSR) upperSolve(z, d []float64) {
	for i := m.rows - 1; i >= 0; i-- {
		s := z[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if j := m.colIdx[k]; j > i {
				s -= m.val[k] * z[j]
			}
		}
		z[i] = s / d[i]
	}
}

// mgPrecond adapts an MGSolver hierarchy to the internal preconditioner
// interface, binding the pool of the enclosing solve.
type mgPrecond struct {
	h    MGSolver
	pool *Pool
}

func (m mgPrecond) apply(z, r []float64) { m.h.Cycle(z, r, m.pool) }

func makePrecond(a Operator, kind PrecondKind, mg MGSolver, pl *Pool) (preconditioner, PrecondKind, error) {
	if kind == PrecondDefault {
		if pl.Workers() > 1 {
			kind = PrecondChebyshev
		} else {
			kind = PrecondJacobi
		}
	}
	switch kind {
	case PrecondJacobi:
		p, err := newJacobi(a, pl)
		return p, PrecondJacobi, err
	case PrecondNone:
		return identityPrecond{}, PrecondNone, nil
	case PrecondSSOR:
		p, err := newSSOR(a, pl)
		return p, PrecondSSOR, err
	case PrecondChebyshev:
		p, err := newChebyshev(a, pl)
		return p, PrecondChebyshev, err
	case PrecondMG:
		if mg == nil {
			return nil, kind, fmt.Errorf("sparse: PrecondMG requires Options.MG (build a hierarchy with internal/mg)")
		}
		if mg.Size() != a.Rows() {
			return nil, kind, fmt.Errorf("sparse: multigrid hierarchy built for %d unknowns, matrix has %d", mg.Size(), a.Rows())
		}
		return mgPrecond{h: mg, pool: pl}, PrecondMG, nil
	default:
		return nil, kind, fmt.Errorf("sparse: unknown preconditioner %v", kind)
	}
}

// ctxErr reports a context cancellation without blocking; the nil Done
// channel of context.Background costs one branch.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// SolveCG solves the symmetric positive definite system A·x = b with the
// preconditioned Conjugate Gradient method. The matrix is consumed through
// the Operator interface: a *CSR, or a matrix-free Stencil for structured
// grids — holding the same entries the two produce bit-identical iterates
// (every kernel accumulates in ascending column order either way).
func SolveCG(a Operator, b []float64, opt Options) ([]float64, Stats, error) {
	return SolveCGCtx(context.Background(), a, b, opt)
}

// SolveCGCtx is SolveCG honoring cancellation: the context is checked
// between iterations, and a cancelled solve returns promptly with the
// iterate so far and an error wrapping ctx.Err(). Kernels run across
// opt.Workers workers (or opt.Pool); with a fixed preconditioner the result
// is bit-identical for any worker count.
//
// Each solve emits a "sparse.cg" span when the context carries an
// obs.Tracer, and records iteration/residual/wall histograms plus
// per-preconditioner counters into the obs default registry. Neither
// touches the numerical path.
func SolveCGCtx(ctx context.Context, a Operator, b []float64, opt Options) ([]float64, Stats, error) {
	ctx, sp := obs.StartSpan(ctx, "sparse.cg")
	x, st, err := solveCG(ctx, a, b, opt)
	if sp != nil {
		sp.Set("unknowns", a.Rows())
		sp.Set("iterations", st.Iterations)
		sp.Set("residual", st.Residual)
		sp.Set("precond", st.Precond.String())
		sp.Set("workers", st.Workers)
		if st.Levels > 0 {
			sp.Set("mg_levels", st.Levels)
		}
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	recordSolve(st, err)
	return x, st, err
}

func solveCG(ctx context.Context, a Operator, b []float64, opt Options) ([]float64, Stats, error) {
	start := time.Now()
	n := a.Rows()
	if a.Cols() != n {
		return nil, Stats{}, fmt.Errorf("sparse: CG needs a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("sparse: CG rhs length %d, want %d", len(b), n)
	}
	pl := opt.Pool
	if pl == nil {
		pl = NewPool(opt.Workers)
		defer pl.Close()
	}
	stats := func(it int, res float64, kind PrecondKind) Stats {
		st := Stats{Iterations: it, Residual: res, Precond: kind, Wall: time.Since(start), Workers: pl.Workers()}
		if kind == PrecondMG && opt.MG != nil {
			st.Levels = opt.MG.Levels()
		}
		return st
	}
	pre, kind, err := makePrecond(a, opt.Precond, opt.MG, pl)
	if err != nil {
		return nil, stats(0, 0, kind), err
	}
	if rel, ok := pre.(releaser); ok {
		defer rel.release()
	}
	// x escapes (it is the returned solution); the other four vectors are
	// pure scratch, fully overwritten before first read, so they come from
	// the pool's free-list — repeated solves on a shared pool (sweeps,
	// transient steps) then allocate no CG workspace at all.
	x := make([]float64, n)
	r, z, p, ap := pl.Grab(n), pl.Grab(n), pl.Grab(n), pl.Grab(n)
	defer pl.Release(r, z, p, ap)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, stats(0, 0, kind), fmt.Errorf("sparse: CG initial guess length %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
		pl.residualFrom(a, x, b, r)
	} else {
		copy(r, b)
	}
	bnorm := pl.norm2(b)
	if bnorm == 0 {
		// The unique SPD solution for b = 0 is x = 0.
		for i := range x {
			x[i] = 0
		}
		return x, stats(0, 0, kind), nil
	}
	tol := opt.tol()
	maxIter := opt.maxIter(n)
	pre.apply(z, r)
	copy(p, z)
	rz := pl.dot(r, z)
	rr := pl.dot(r, r)
	var it int
	for it = 0; it < maxIter; it++ {
		if math.Sqrt(rr)/bnorm <= tol {
			break
		}
		if err := ctxErr(ctx); err != nil {
			res := math.Sqrt(rr) / bnorm
			return x, stats(it, res, kind), fmt.Errorf("sparse: CG cancelled after %d iterations (residual %g): %w", it, res, err)
		}
		pap := pl.mulVecDot(a, p, ap, p)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, stats(it, 0, kind), fmt.Errorf("sparse: CG breakdown (p·Ap = %g); matrix is not SPD", pap)
		}
		alpha := rz / pap
		rr = pl.cgUpdate(x, r, p, ap, alpha)
		pre.apply(z, r)
		rzNew := pl.dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		pl.xpby(p, z, beta)
	}
	res := math.Sqrt(rr) / bnorm
	st := stats(it, res, kind)
	if res > tol {
		return x, st, fmt.Errorf("%w: CG after %d iterations, residual %g > tol %g", ErrNotConverged, it, res, tol)
	}
	return x, st, nil
}
