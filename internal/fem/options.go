package fem

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// ErrNotConverged is returned when a reference solve exhausts its iteration
// budget; the error message carries the achieved residual, iteration count
// and preconditioner so a failed solve is diagnosable without a rerun.
var ErrNotConverged = errors.New("fem: reference solve did not converge")

// ConvergenceError is the concrete error behind ErrNotConverged: it keeps
// the solver stats of the failed attempt structurally accessible (via
// errors.As), so callers can read the achieved residual and iteration count
// instead of parsing the message.
type ConvergenceError struct {
	// What names the solve that failed (e.g. "axisymmetric solve").
	What string
	// Cells is the unknown count of the system.
	Cells int
	// Stats reports the failed solve, including the residual it reached.
	Stats sparse.Stats

	err error
}

func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("%v: %s (%d cells): %v preconditioner stopped at residual %.3g after %d iterations: %v",
		ErrNotConverged, e.What, e.Cells, e.Stats.Precond, e.Stats.Residual, e.Stats.Iterations, e.err)
}

// Unwrap exposes both ErrNotConverged and the underlying sparse error to
// errors.Is chains.
func (e *ConvergenceError) Unwrap() []error { return []error{ErrNotConverged, e.err} }

// mgAutoThreshold is the unknown count above which the default
// preconditioner becomes multigrid. Below it the hierarchy setup (coarse
// operators, transfers, coarse factorization) costs more than the CG
// iterations it saves; above it the mesh-independent iteration count wins —
// decisively so at the 2–4× refined resolutions of convergence studies.
// The default-resolution axisymmetric block (~2k cells) stays on the
// single-level preconditioners; the 3-D and refined solves cross over.
const mgAutoThreshold = 4000

// sparseDefaults returns the iterative-solver settings used by the stack
// reference solves: tight tolerance (the reference must out-resolve the
// models it judges) with a generous iteration budget. The preconditioner is
// left at PrecondDefault so resolveSolver can choose per system.
func sparseDefaults() sparse.Options {
	return sparse.Options{Tol: 1e-10}
}

// resolveSolver finalizes the solver options for an assembled system: the
// default preconditioner becomes multigrid above mgAutoThreshold unknowns
// (falling back to the single-level default when a hierarchy cannot be
// built), an explicit PrecondMG request gets its hierarchy built here, and
// an unset MaxIter scales with the preconditioner class instead of the
// system size. A pre-built Options.MG (e.g. the transient integrator's
// shared hierarchy) is reused as-is.
func resolveSolver(opt sparse.Options, a *sparse.Stencil) sparse.Options {
	return resolveSolverWith(nil, asmKey{}, opt, a)
}

// resolveSolverWith is resolveSolver drawing the multigrid hierarchy from
// sc's cache (reused when the operator values are unchanged, rebuilt through
// the predecessor's recycled arena otherwise). A nil sc builds fresh.
func resolveSolverWith(sc *SolveContext, key asmKey, opt sparse.Options, a *sparse.Stencil) sparse.Options {
	if opt.MG == nil && (opt.Precond == sparse.PrecondMG ||
		(opt.Precond == sparse.PrecondDefault && a.Rows() >= mgAutoThreshold)) {
		if h, err := sc.hierarchyFor(key, a); err == nil {
			if opt.Precond == sparse.PrecondDefault {
				obs.Default().Counter("fem.mg.auto").Inc()
			}
			opt.Precond = sparse.PrecondMG
			opt.MG = h
		} else {
			obs.Default().Counter("fem.mg.fallback").Inc()
			if opt.Precond == sparse.PrecondMG {
				// An explicit request on a grid that cannot support a hierarchy
				// (too few cells to coarsen, degenerate operator): fall back to
				// the default selection rather than failing the solve; Stats
				// reports the preconditioner that actually ran.
				opt.Precond = sparse.PrecondDefault
			}
		}
	}
	opt = pickPrecond(opt)
	if opt.MaxIter == 0 {
		opt.MaxIter = maxIterFor(opt.Precond, a.Rows())
	}
	return opt
}

// maxIterFor budgets CG iterations by preconditioner class rather than the
// flat 10·n default: multigrid converges in a mesh-independent handful of
// iterations, the single-level preconditioners in O(√κ) ≈ O(√n) on these
// second-order elliptic systems. Unpreconditioned CG gets a far larger
// budget still — without diagonal scaling its condition number carries the
// stack's full four-decade coefficient contrast, and the default-resolution
// block already needs ~9k iterations. Each budget is several times the
// observed count, so hitting one genuinely means "did not converge", caught
// early instead of after 10·n wasted iterations.
func maxIterFor(p sparse.PrecondKind, n int) int {
	root := int(math.Sqrt(float64(n)))
	switch p {
	case sparse.PrecondMG:
		return 200
	case sparse.PrecondSSOR, sparse.PrecondChebyshev:
		return 40*root + 1000
	case sparse.PrecondNone:
		return 600*root + 8000
	default: // Jacobi
		return 150*root + 2000
	}
}

// solveErr wraps a linear-solver failure with the system context; iteration
// exhaustion maps to a *ConvergenceError matching ErrNotConverged and
// carrying the achieved residual.
func solveErr(what string, n int, st sparse.Stats, err error) error {
	if errors.Is(err, sparse.ErrNotConverged) {
		obs.Default().Counter("fem.solve.notconverged").Inc()
		return &ConvergenceError{What: what, Cells: n, Stats: st, err: err}
	}
	return fmt.Errorf("fem: %s (%d cells): %w", what, n, err)
}

// pickPrecond resolves the default preconditioner for this package's
// solves: SSOR for sequential runs (fewest iterations), Chebyshev when the
// solve runs on more than one worker (SSOR's triangular sweeps are
// inherently sequential; Chebyshev parallelizes and stays bit-identical for
// any worker count). An explicit opt.Precond — including the PrecondMG
// resolveSolver may have attached — is honored unchanged.
func pickPrecond(opt sparse.Options) sparse.Options {
	if opt.Precond != sparse.PrecondDefault {
		return opt
	}
	workers := opt.Workers
	if opt.Pool != nil {
		workers = opt.Pool.Workers()
	}
	if workers > 1 {
		opt.Precond = sparse.PrecondChebyshev
	} else {
		opt.Precond = sparse.PrecondSSOR
	}
	return opt
}

// almostEqual reports whether a and b agree to within rtol relatively (or
// exactly, for zero values). Mesh construction accumulates layer
// thicknesses in floating point, so consistency checks between a summed
// height and a mesh endpoint must not use exact equality.
func almostEqual(a, b, rtol float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	max := a
	if max < 0 {
		max = -max
	}
	if b > max {
		max = b
	} else if -b > max {
		max = -b
	}
	return diff <= rtol*max
}
