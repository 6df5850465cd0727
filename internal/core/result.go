package core

import (
	"context"

	"repro/internal/sparse"
	"repro/internal/stack"
)

// Result reports a solved steady-state temperature field of one model run.
// All temperatures are rises (K) above the heat-sink reference; add
// stack.SinkTemp for absolute temperatures.
type Result struct {
	// Model names the producing model ("A", "B(100)", "1D", ...).
	Model string
	// MaxDT is the maximum temperature rise anywhere in the model (K) —
	// the quantity every figure of the paper plots.
	MaxDT float64
	// PlaneDT is the temperature rise of each plane's representative node
	// (the surroundings node T1, T3, T5, ... in Model A; the hottest node of
	// the plane in Model B; the device layer in the 1-D model).
	PlaneDT []float64
	// BaseDT is the rise of the common substrate node T0 (eq. (6)).
	BaseDT float64
	// Unknowns is the size of the linear system that was solved.
	Unknowns int
	// Solver reports the iterative linear-solve statistics of the FVM
	// reference solver. The analytic models solve their ladders directly,
	// and a factorization has no iteration count, so they leave it zero.
	Solver sparse.Stats
}

// Model is a TTSV thermal model: given a stack it produces temperatures.
type Model interface {
	// Name identifies the model in tables and figures.
	Name() string
	// Solve computes steady-state temperature rises for the stack.
	Solve(s *stack.Stack) (*Result, error)
}

// ContextSolver is implemented by models whose solve can be interrupted
// mid-flight (e.g. the iterative FVM reference solver). Batch runners prefer
// SolveCtx when available, so cancelling a sweep also stops solves that have
// already started rather than only preventing new ones.
type ContextSolver interface {
	Model
	// SolveCtx is Solve honoring cancellation; it returns an error wrapping
	// ctx.Err() when interrupted.
	SolveCtx(ctx context.Context, s *stack.Stack) (*Result, error)
}

// Solve solves s with m, through SolveCtx when m is a ContextSolver so ctx
// can stop the solve mid-flight, and through Solve otherwise.
func Solve(ctx context.Context, m Model, s *stack.Stack) (*Result, error) {
	if cs, ok := m.(ContextSolver); ok {
		return cs.SolveCtx(ctx, s)
	}
	return m.Solve(s)
}
