package fem

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/stack"
)

// counterDelta runs fn and returns how much the named obs counter moved.
// Deltas (not absolute values) keep the assertions valid when other tests
// run in parallel against the shared default registry.
func counterDelta(name string, fn func()) int64 {
	before := obs.Default().Counter(name).Value()
	fn()
	return obs.Default().Counter(name).Value() - before
}

// TestNotConvergedCarriesResidualAndCounts starves a multigrid-
// preconditioned CG solve of iterations and asserts the structured error: it matches both ErrNotConverged
// sentinels, exposes the achieved residual via ConvergenceError, and bumps
// the not-converged counter.
func TestNotConvergedCarriesResidualAndCounts(t *testing.T) {
	s := fig4(t, 10)
	p, err := BuildAxiProblem(s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	var solveErr error
	d := counterDelta("fem.solve.notconverged", func() {
		_, solveErr = SolveAxiWith(context.Background(), nil, p, sparse.Options{MaxIter: 2, Precond: sparse.PrecondMG})
	})
	if solveErr == nil {
		t.Fatal("2-iteration budget converged; test cannot probe the failure path")
	}
	if d < 1 {
		t.Errorf("fem.solve.notconverged moved by %d, want >= 1", d)
	}
	if !errors.Is(solveErr, ErrNotConverged) {
		t.Errorf("error does not match fem.ErrNotConverged: %v", solveErr)
	}
	if !errors.Is(solveErr, sparse.ErrNotConverged) {
		t.Errorf("error does not match sparse.ErrNotConverged: %v", solveErr)
	}
	var ce *ConvergenceError
	if !errors.As(solveErr, &ce) {
		t.Fatalf("error is not a *ConvergenceError: %v", solveErr)
	}
	if ce.Stats.Iterations != 2 {
		t.Errorf("ConvergenceError iterations = %d, want 2", ce.Stats.Iterations)
	}
	if ce.Stats.Residual <= 0 {
		t.Errorf("ConvergenceError residual = %g, want the achieved (positive) residual", ce.Stats.Residual)
	}
	if ce.Cells == 0 || ce.What == "" {
		t.Errorf("ConvergenceError context incomplete: %+v", ce)
	}
	if !strings.Contains(solveErr.Error(), "residual") {
		t.Errorf("error message lost the residual: %v", solveErr)
	}
}

// spanRec is one NDJSON span record of the tracer.
type spanRec struct {
	Span   string         `json:"span"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	DurNS  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs"`
}

// tracedSpans solves s at res under a tracer and returns its spans by name.
func tracedSpans(t *testing.T, s *stack.Stack, res Resolution) map[string]spanRec {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	ctx := obs.ContextWithTracer(context.Background(), tr)
	sc := NewSolveContext()
	defer sc.Close()
	if _, err := SolveStackWith(ctx, sc, s, res); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]spanRec{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r spanRec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("unparseable NDJSON line %q: %v", line, err)
		}
		byName[r.Span] = r
	}
	return byName
}

// TestSolveStackCtxEmitsSpanChain runs a multigrid-preconditioned reference
// solve under a tracer and checks the NDJSON trace contains the fem.stack →
// fem.solve → {fem.assemble, fem.precond, sparse.cg} chain with correct
// parent links.
func TestSolveStackCtxEmitsSpanChain(t *testing.T) {
	res := DefaultResolution()
	res.Precond = sparse.PrecondMG
	byName := tracedSpans(t, fig4(t, 10), res)
	for _, want := range []string{"fem.stack", "fem.solve", "fem.assemble", "fem.precond", "sparse.cg"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("trace missing span %q (have %v)", want, byName)
		}
	}
	if byName["fem.stack"].Parent != 0 {
		t.Error("fem.stack is not a root span")
	}
	if byName["fem.solve"].Parent != byName["fem.stack"].ID {
		t.Error("fem.solve not parented to fem.stack")
	}
	for _, child := range []string{"fem.assemble", "fem.precond", "sparse.cg"} {
		if byName[child].Parent != byName["fem.solve"].ID {
			t.Errorf("%s not parented to fem.solve", child)
		}
	}
	if _, ok := byName["sparse.cg"].Attrs["iterations"]; !ok {
		t.Error("sparse.cg span lacks the iterations attribute")
	}
}

// TestDirectSolveObservability: a direct solve runs inside its fem.precond
// span, which carries the method, half-bandwidth, factor reuse, true
// residual and the factor/sweeps split, and emits no sparse.cg span; Stats
// reports the same.
func TestDirectSolveObservability(t *testing.T) {
	s := fig4(t, 10)
	byName := tracedSpans(t, s, DefaultResolution())
	if _, ok := byName["sparse.cg"]; ok {
		t.Error("direct solve emitted a sparse.cg span")
	}
	sp, ok := byName["fem.precond"]
	if !ok || sp.Parent != byName["fem.solve"].ID {
		t.Fatalf("fem.precond missing or misparented: %+v", byName)
	}
	sol := freshSolve(t, s, DefaultResolution())
	st := sol.Stats
	if !st.Direct || st.Iterations != 0 || st.Bandwidth != len(sol.RCenters) || st.Reused || !(st.Residual > 0) || st.Factor <= 0 || st.Wall <= 0 {
		t.Fatalf("direct stats %+v", st)
	}
	want := map[string]any{"precond": "direct", "iterations": 0.0, "half_bandwidth": float64(st.Bandwidth),
		"reused": false, "residual": st.Residual}
	for k, v := range want {
		if sp.Attrs[k] != v {
			t.Errorf("fem.precond %s = %v, want %v", k, sp.Attrs[k], v)
		}
	}
	for _, k := range []string{"factor_ms", "sweeps_ms"} {
		if ms, ok := sp.Attrs[k].(float64); !ok || !(ms > 0) {
			t.Errorf("fem.precond %s = %v, want a positive time", k, sp.Attrs[k])
		}
	}
}

// TestSolveRecordsMetrics asserts one multigrid-preconditioned reference
// solve feeds the CG series of the default registry.
func TestSolveRecordsMetrics(t *testing.T) {
	s := fig4(t, 10)
	res := DefaultResolution()
	res.Precond = sparse.PrecondMG
	before := obs.Default().Snapshot()
	if _, err := SolveStackWith(context.Background(), nil, s, res); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	if d := after.Counters["sparse.cg.solves"] - before.Counters["sparse.cg.solves"]; d < 1 {
		t.Errorf("sparse.cg.solves moved by %d, want >= 1", d)
	}
	if d := after.Histograms["sparse.cg.iterations"].Count - before.Histograms["sparse.cg.iterations"].Count; d < 1 {
		t.Errorf("sparse.cg.iterations histogram gained %d observations, want >= 1", d)
	}
}
