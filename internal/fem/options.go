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
// The default-resolution axisymmetric block (~2k cells) stays on SSOR; the
// 3-D and refined solves cross over.
const mgAutoThreshold = 4000

// sparseDefaults returns the iterative-solver settings used by the stack
// reference solves: tight tolerance (the reference must out-resolve the
// models it judges) with a generous iteration budget. The preconditioner is
// left at PrecondDefault so resolveSolver can choose per system.
func sparseDefaults() sparse.Options {
	return sparse.Options{Tol: 1e-10}
}

// resolveSolver finalizes the solver options for an assembled system: the
// default preconditioner becomes multigrid at mgAutoThreshold unknowns and
// above, SSOR below; an explicit PrecondMG request gets its hierarchy built
// here; a grid that cannot support a hierarchy falls back to SSOR; and an
// unset MaxIter scales with the preconditioner instead of the system size.
// A pre-built Options.MG is reused as-is.
func resolveSolver(opt sparse.Options, a *sparse.Stencil) sparse.Options {
	return resolveSolverWith(nil, asmKey{}, opt, a)
}

// resolveSolverWith is resolveSolver drawing the multigrid hierarchy from
// sc's cache (reused when the operator values are unchanged, rebuilt through
// the predecessor's recycled arena otherwise). A nil sc builds fresh.
func resolveSolverWith(sc *SolveContext, key asmKey, opt sparse.Options, a *sparse.Stencil) sparse.Options {
	auto := opt.Precond == sparse.PrecondDefault
	if opt.MG == nil && (opt.Precond == sparse.PrecondMG || (auto && a.Rows() >= mgAutoThreshold)) {
		if h, err := sc.hierarchyFor(key, a); err == nil {
			if auto {
				obs.Default().Counter("fem.mg.auto").Inc()
			}
			opt.Precond = sparse.PrecondMG
			opt.MG = h
		} else {
			// A grid too small to coarsen or a degenerate operator: Stats
			// reports the preconditioner that actually ran.
			obs.Default().Counter("fem.mg.fallback").Inc()
		}
	}
	if opt.Precond != sparse.PrecondMG || opt.MG == nil {
		opt.Precond = sparse.PrecondSSOR
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = maxIterFor(opt.Precond, a.Rows())
	}
	return opt
}

// maxIterFor budgets CG iterations by preconditioner rather than the flat
// 10·n default: multigrid converges in a mesh-independent handful of
// iterations, SSOR in O(√κ) ≈ O(√n) on these second-order elliptic systems.
// Each budget is several times the observed count, so hitting one genuinely
// means "did not converge", caught early instead of after 10·n wasted
// iterations.
func maxIterFor(p sparse.PrecondKind, n int) int {
	if p == sparse.PrecondMG {
		return 200
	}
	return 40*int(math.Sqrt(float64(n))) + 1000
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
