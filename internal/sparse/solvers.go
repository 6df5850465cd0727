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
// defaults (rtol 1e-10, 10·n iterations, no preconditioner).
type Options struct {
	// Tol is the relative residual tolerance ||r||/||b||. Zero means 1e-10.
	Tol float64
	// MaxIter caps the iteration count. Zero means 10·n (at least 100).
	MaxIter int
	// Precond selects the preconditioner for PCG. The zero value
	// (PrecondDefault) runs plain CG.
	Precond PrecondKind
	// Pool optionally supplies a scratch pool shared across solves, e.g. the
	// many linear solves of a transient integration, so they reuse their
	// work vectors.
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
// between iterations — and deterministic.
type MGSolver interface {
	// Cycle applies one multigrid cycle approximating A⁻¹·r into z. z and r
	// have Size() elements.
	Cycle(z, r []float64)
	// Levels reports the hierarchy depth (≥ 1).
	Levels() int
	// Size reports the fine-grid unknown count the hierarchy was built for.
	Size() int
}

// PrecondKind enumerates the available preconditioners.
type PrecondKind int

const (
	// PrecondDefault lets the caller of the solver pick; the solvers in this
	// package run it as plain, unpreconditioned CG.
	PrecondDefault PrecondKind = iota
	// PrecondMG applies one cycle of a multigrid hierarchy supplied via
	// Options.MG. On the structured finite-volume grids of this repository
	// the CG iteration count becomes essentially mesh-independent, which is
	// what makes fine-resolution reference solves tractable.
	PrecondMG
)

func (p PrecondKind) String() string {
	switch p {
	case PrecondDefault:
		return "default"
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
	case "mg", "multigrid":
		return PrecondMG, nil
	}
	return PrecondDefault, fmt.Errorf("sparse: unknown preconditioner %q (want auto or mg)", s)
}

// Stats reports what a solve did: a CG iteration, or a direct solve by the
// banded LDLᵀ factor (Direct).
type Stats struct {
	// Iterations actually performed.
	Iterations int
	// Residual is the final relative residual.
	Residual float64
	// Precond is the preconditioner that actually ran (PrecondDefault is
	// resolved to the concrete kind before the solve starts).
	Precond PrecondKind
	// Wall is the wall-clock duration of the solve (for a transient
	// integration, the sum over all steps). For a direct solve it covers
	// the two triangular sweeps and the residual check, not the factor.
	Wall time.Duration
	// Factor is the wall-clock time a direct solve spent filling and
	// factoring its band, zero when it served a reused factor (for a
	// transient integration, the sum over all steps). String leaves it out,
	// so the text stays deterministic.
	Factor time.Duration
	// Levels is the multigrid hierarchy depth when Precond is PrecondMG,
	// zero otherwise.
	Levels int
	// Direct reports a banded Cholesky solve (SolveCholesky): Iterations is
	// 0 and Residual is the true ‖b − A·x‖/‖b‖ of the result.
	Direct bool
	// Bandwidth is the half-bandwidth of a direct solve's factor.
	Bandwidth int
	// Reused reports that a direct solve served a factor cached from an
	// earlier solve of the same operator instead of factoring.
	Reused bool
}

func (s Stats) String() string {
	if s.Direct {
		factor := "new"
		if s.Reused {
			factor = "reused"
		}
		return fmt.Sprintf("direct (banded Cholesky, half-bandwidth %d, %s factor), 0 iterations, residual %.3g", s.Bandwidth, factor, s.Residual)
	}
	out := fmt.Sprintf("%d iterations, residual %.3g, precond %v", s.Iterations, s.Residual, s.Precond)
	if s.Levels > 0 {
		out += fmt.Sprintf(" (%d levels)", s.Levels)
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

// mgPrecond adapts an MGSolver hierarchy to the internal preconditioner
// interface.
type mgPrecond struct{ h MGSolver }

func (m mgPrecond) apply(z, r []float64) { m.h.Cycle(z, r) }

// identity is plain CG's preconditioner: z = r.
type identity struct{}

func (identity) apply(z, r []float64) { copy(z, r) }

func makePrecond(a Operator, kind PrecondKind, mg MGSolver) (preconditioner, error) {
	switch kind {
	case PrecondDefault:
		return identity{}, nil
	case PrecondMG:
		if mg == nil {
			return nil, fmt.Errorf("sparse: PrecondMG requires Options.MG (build a hierarchy with internal/mg)")
		}
		if mg.Size() != a.Rows() {
			return nil, fmt.Errorf("sparse: multigrid hierarchy built for %d unknowns, matrix has %d", mg.Size(), a.Rows())
		}
		return mgPrecond{h: mg}, nil
	default:
		return nil, fmt.Errorf("sparse: unknown preconditioner %v", kind)
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

// SolveCGCtx solves the symmetric positive definite system A·x = b with the
// preconditioned Conjugate Gradient method. The matrix is consumed through
// the Operator interface: the matrix-free Stencil of a structured grid, or
// the tests' reference CSR — holding the same entries the two produce
// bit-identical iterates (every kernel accumulates in ascending column order
// either way).
//
// The context is checked between iterations, and a cancelled solve returns
// promptly with the iterate so far and an error wrapping ctx.Err(). The
// solve runs on the calling goroutine.
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
	stats := func(it int, res float64, kind PrecondKind) Stats {
		st := Stats{Iterations: it, Residual: res, Precond: kind, Wall: time.Since(start)}
		if kind == PrecondMG && opt.MG != nil {
			st.Levels = opt.MG.Levels()
		}
		return st
	}
	kind := opt.Precond
	pre, err := makePrecond(a, kind, opt.MG)
	if err != nil {
		return nil, stats(0, 0, kind), err
	}
	// All five vectors come from the pool's free-list, so repeated solves on
	// a shared pool (sweeps, transient steps) allocate no CG workspace at
	// all. The other four are pure scratch, fully overwritten before first
	// read; x, the returned solution, belongs to the caller, who may release
	// it, and is cleared because CG starts from x = 0.
	x := pl.Grab(n)
	clear(x)
	r, z, p, ap := pl.Grab(n), pl.Grab(n), pl.Grab(n), pl.Grab(n)
	defer pl.Release(r, z, p, ap)
	copy(r, b)
	bnorm := norm2(b)
	if bnorm == 0 {
		// The unique SPD solution for b = 0 is x = 0, where CG starts.
		return x, stats(0, 0, kind), nil
	}
	tol := opt.tol()
	maxIter := opt.maxIter(n)
	pre.apply(z, r)
	copy(p, z)
	rz := dot(r, z)
	rr := dot(r, r)
	var it int
	for it = 0; it < maxIter; it++ {
		if math.Sqrt(rr)/bnorm <= tol {
			break
		}
		if err := ctxErr(ctx); err != nil {
			res := math.Sqrt(rr) / bnorm
			return x, stats(it, res, kind), fmt.Errorf("sparse: CG cancelled after %d iterations (residual %g): %w", it, res, err)
		}
		pap := mulVecDot(a, p, ap, p)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, stats(it, 0, kind), fmt.Errorf("sparse: CG breakdown (p·Ap = %g); matrix is not SPD", pap)
		}
		alpha := rz / pap
		rr = cgUpdate(x, r, p, ap, alpha)
		pre.apply(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		xpby(p, z, beta)
	}
	res := math.Sqrt(rr) / bnorm
	st := stats(it, res, kind)
	if res > tol {
		return x, st, fmt.Errorf("%w: CG after %d iterations, residual %g > tol %g", ErrNotConverged, it, res, tol)
	}
	return x, st, nil
}
