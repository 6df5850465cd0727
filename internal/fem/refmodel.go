package fem

import (
	"context"

	"repro/internal/core"
	"repro/internal/stack"
)

// ReferenceModel adapts the finite-volume reference solver to the core.Model
// interface, so the FVM column of the paper's figures can run through the
// same batch-evaluation machinery (worker pools, memoization, error capture)
// as the analytical models. Its solves keep their solver state in the
// package's bounded idle list between calls, so no caller has to hold it.
// The zero value solves the base mesh under the default solver rule.
type ReferenceModel struct {
	// Res is the mesh level and solver choice.
	Res Resolution
}

// RefModelName is the name ReferenceModel reports, matching the reference
// column label of every figure.
const RefModelName = "FVM"

// Name implements core.Model.
func (ReferenceModel) Name() string { return RefModelName }

// Solve implements core.Model by running the axisymmetric finite-volume
// solve. PlaneDT is left nil: the cell field does not attribute temperatures
// to planes the way the lumped models do. Solver carries the CG statistics.
func (m ReferenceModel) Solve(s *stack.Stack) (*core.Result, error) {
	return m.SolveCtx(context.Background(), s)
}

// SolveCtx implements core.ContextSolver: a direct solve checks ctx before
// factoring and before its sweeps, a CG iteration between iterations, so
// cancelling a sweep also stops its in-flight finite-volume solves. It
// passes a nil context (see SolveContext): repeated solves of one shape
// reuse its assembly, storage and scratch, of one operator its factor or
// hierarchy, and the result is bit-identical to a fresh solve. It keeps no
// field (see SolveStackMaxWith).
func (m ReferenceModel) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	max, cells, st, err := solveStackMax(ctx, nil, s, m.Res)
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Model:    RefModelName,
		MaxDT:    max,
		Unknowns: cells,
		Solver:   st,
	}, nil
}
