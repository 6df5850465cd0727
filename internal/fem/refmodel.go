package fem

import (
	"context"

	"repro/internal/core"
	"repro/internal/stack"
)

// ReferenceModel adapts the finite-volume reference solver to the core.Model
// interface, so the FVM column of the paper's figures can run through the
// same batch-evaluation machinery (worker pools, memoization, error capture)
// as the analytical models. The zero value uses DefaultResolution.
type ReferenceModel struct {
	// Res is the mesh density; the zero value selects DefaultResolution.
	// Res.Workers and/or Res.Precond alone (all mesh counts zero) keep the
	// default mesh but tune the solver.
	Res Resolution
}

// RefModelName is the name ReferenceModel reports, matching the reference
// column label of every figure.
const RefModelName = "FVM"

// Name implements core.Model.
func (ReferenceModel) Name() string { return RefModelName }

// resolution returns the effective mesh density: a Resolution whose mesh
// counts are all zero keeps the default mesh, with the solver knobs
// (Workers, Precond) carried over.
func (m ReferenceModel) resolution() Resolution {
	if m.Res == (Resolution{Workers: m.Res.Workers, Precond: m.Res.Precond}) {
		r := DefaultResolution()
		r.Workers = m.Res.Workers
		r.Precond = m.Res.Precond
		return r
	}
	return m.Res
}

// Solve implements core.Model by running the axisymmetric finite-volume
// solve. PlaneDT is left nil: the cell field does not attribute temperatures
// to planes the way the lumped models do. Solver carries the CG statistics.
func (m ReferenceModel) Solve(s *stack.Stack) (*core.Result, error) {
	return m.SolveCtx(context.Background(), s)
}

// SolveCtx implements core.ContextSolver: the underlying conjugate-gradient
// iteration checks ctx between iterations, so cancelling a sweep also stops
// its in-flight finite-volume solves.
func (m ReferenceModel) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	return m.solveWith(ctx, nil, s)
}

func (m ReferenceModel) solveWith(ctx context.Context, sc *SolveContext, s *stack.Stack) (*core.Result, error) {
	sol, err := SolveStackWith(ctx, sc, s, m.resolution())
	if err != nil {
		return nil, err
	}
	max, _, _ := sol.MaxT()
	cells := len(sol.RCenters) * len(sol.ZCenters)
	return &core.Result{
		Model:    RefModelName,
		MaxDT:    max,
		Unknowns: cells,
		Solver:   sol.Stats,
	}, nil
}

// NewReusable implements core.ReusableSolver: the returned instance owns a
// SolveContext, so consecutive solves share the assembled sparsity pattern,
// the multigrid hierarchy (reused outright when the operator is unchanged,
// rebuilt through recycled memory when it is not) and the CG scratch pool.
func (m ReferenceModel) NewReusable(warmStart bool) core.ReusableInstance {
	sc := NewSolveContext()
	sc.WarmStart = warmStart
	return &reusableRef{m: m, sc: sc}
}

type reusableRef struct {
	m  ReferenceModel
	sc *SolveContext
}

func (r *reusableRef) SolveCtx(ctx context.Context, s *stack.Stack) (*core.Result, error) {
	return r.m.solveWith(ctx, r.sc, s)
}

func (r *reusableRef) ResetWarm() { r.sc.ResetWarm() }
func (r *reusableRef) Close()     { r.sc.Close() }
