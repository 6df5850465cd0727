package fem

import (
	"context"
	"errors"
	"fmt"
	"time"

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

// directBudget bounds the cost n·b² — unknowns times the squared half-
// bandwidth; a banded LDLᵀ factorization takes about n·b²/2 multiply-
// adds — of the grids solved direct. Grids at or above it get multigrid-
// preconditioned CG. It sits at the crossover of fresh solves with the
// AVX2 lane factor (EXPERIMENTS.md, "Direct or multigrid"): the factor
// wins through 4× the default mesh (n·b² = 2.72e8) and the 12×12×35 chip
// grid (1.0e8), multigrid at 16×16×35 (5.9e8) and 8× (4.4e9). It is the
// same on every host: without AVX2 the row loop is about 15% slower than
// multigrid on a fresh 4× solve, but 7–9× faster on a warm re-solve, which
// the idle list serves. A factor, which ctx cannot interrupt, thus runs at
// most 1.5e8 multiply-adds.
const directBudget = 3e8

// mgMaxIter budgets multigrid-preconditioned CG, which converges in a
// mesh-independent 10–20 iterations on these grids: reaching it means the
// solve did not converge, caught early instead of after the 10·n default.
const mgMaxIter = 200

// solveSystem solves a·x = b, assembled into sc, by the one grid rule: a
// grid with n·b² < directBudget by the banded LDLᵀ factor sc holds;
// any other grid, or an explicit PrecondMG request, by multigrid-
// preconditioned CG with the hierarchy sc holds; a grid mg.Build cannot
// coarsen is an error. ctx is checked before factoring, before
// the factor's sweeps and between CG iterations. An unset CG MaxIter
// becomes mgMaxIter.
//
// The "fem.precond" span covers the hierarchy build of a CG solve, whose
// iteration gets its own "sparse.cg" span, and the whole of a direct solve,
// so it carries what a direct solve did: method, half-bandwidth, factor
// reuse, residual, and its split into factor_ms (zero when reused) and
// sweeps_ms (the triangular sweeps and the residual check).
func (sc *SolveContext) solveSystem(ctx context.Context, a *sparse.Stencil, b []float64, opt sparse.Options) ([]float64, sparse.Stats, error) {
	_, sp := obs.StartSpan(ctx, "fem.precond")
	defer sp.End()
	if opt.Pool == nil {
		opt.Pool = &sc.pool
	}
	n, bw := float64(a.Rows()), float64(a.HalfBandwidth())
	if opt.Precond == sparse.PrecondMG || n*bw*bw >= directBudget {
		h, err := sc.hierarchyFor(a)
		if err != nil {
			return nil, sparse.Stats{}, err
		}
		opt.Precond, opt.MG = sparse.PrecondMG, h
		if opt.MaxIter == 0 {
			opt.MaxIter = mgMaxIter
		}
		sp.Set("precond", opt.Precond.String())
		sp.End()
		return sparse.SolveCGCtx(ctx, a, b, opt)
	}
	if err := ctx.Err(); err != nil {
		return nil, sparse.Stats{}, err
	}
	start := time.Now()
	f, reused, err := sc.factorFor(a)
	factorWall := time.Since(start)
	if err != nil {
		return nil, sparse.Stats{}, err
	}
	x, st, err := sparse.SolveCholesky(ctx, a, f, b, opt.Pool)
	st.Reused = reused
	if !reused {
		st.Factor = factorWall
	}
	if sp != nil { // boxing the floats for an untraced solve would allocate
		sp.Set("precond", "direct")
		sp.Set("iterations", 0)
		sp.Set("half_bandwidth", st.Bandwidth)
		sp.Set("reused", st.Reused)
		sp.Set("residual", st.Residual)
		sp.Set("factor_ms", st.Factor.Seconds()*1e3)
		sp.Set("sweeps_ms", st.Wall.Seconds()*1e3)
	}
	return x, st, err
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
