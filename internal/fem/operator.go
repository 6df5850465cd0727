package fem

import (
	"fmt"

	"repro/internal/mg"
	"repro/internal/sparse"
)

// stencilFor returns the pattern's matrix-free stencil view, building it on
// first use and refreshing its coefficient arrays after any numeric refill.
// The construction error is sticky: a matrix that is not a structured-grid
// stencil stays that way across refills (the sparsity pattern is fixed), so
// the probe runs once per pattern, not once per solve.
func (pat *pattern) stencilFor(dims []int) (*sparse.Stencil, error) {
	if pat.stencil == nil && pat.stencilErr == nil {
		pat.stencil, pat.stencilErr = sparse.NewStencil(pat.matrix, dims)
		pat.stencilDirty = false
	}
	if pat.stencilErr != nil {
		return nil, pat.stencilErr
	}
	if pat.stencilDirty {
		if err := pat.stencil.Refresh(); err != nil {
			return nil, err
		}
		pat.stencilDirty = false
	}
	return pat.stencil, nil
}

// operatorFor resolves the operator a solve runs on, given the fully
// resolved solver options, and returns it with its name for the
// fem.operator span attribute. SSOR's triangular sweeps need the assembled
// matrix, so SSOR solves run on the CSR; every other preconditioner runs on
// the matrix-free stencil, which evaluates bit-identically (a third of the
// memory traffic per matvec). Every grid this package assembles is a full
// structured stencil, so a stencil that cannot be built is an error.
func operatorFor(pat *pattern, dims []int, o sparse.Options) (sparse.Operator, string, error) {
	if o.Precond == sparse.PrecondSSOR {
		return pat.matrix, "csr", nil
	}
	st, err := pat.stencilFor(dims)
	if err != nil {
		return nil, "", fmt.Errorf("fem: matrix-free operator unavailable: %w", err)
	}
	// A multigrid preconditioner built from the assembled CSR runs its
	// fine-level smoothing and residuals through the same stencil.
	if h, ok := o.MG.(*mg.Hierarchy); ok {
		h.SetFineOperator(st)
	}
	return st, "stencil", nil
}
