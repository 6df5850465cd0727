package ttsv_test

// Facade tests for the observability surface: metrics snapshots, NDJSON
// span tracing, and the enable/disable switches, exercised exactly as a
// downstream user would.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	ttsv "repro"
)

// mgResolution is the default mesh with multigrid forced, so the solve
// runs CG and feeds its series (the grid rule would solve it direct).
func mgResolution() ttsv.Resolution {
	res := ttsv.DefaultResolution()
	res.Precond = ttsv.PrecondMG
	return res
}

func TestMetricsThroughFacade(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	before := ttsv.Metrics().Counters
	if _, _, err := ttsv.SolveReferenceStats(s, mgResolution()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ttsv.SolveReferenceStats(s, ttsv.DefaultResolution()); err != nil {
		t.Fatal(err)
	}
	snap := ttsv.Metrics()
	for name, want := range map[string]int64{"sparse.cg.solves": 1, "fem.direct.factors": 1} {
		if got := snap.Counters[name] - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
	h, ok := snap.Histograms["sparse.cg.iterations"]
	if !ok {
		t.Fatal("no sparse.cg.iterations histogram in snapshot")
	}
	if h.Count == 0 || h.Mean() <= 0 {
		t.Errorf("iterations histogram empty: count=%d mean=%g", h.Count, h.Mean())
	}
	if snap.String() == "" {
		t.Error("snapshot String is empty")
	}
}

func TestTraceContextEmitsSolverSpans(t *testing.T) {
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := ttsv.NewTracer(&buf)
	ctx := ttsv.TraceContext(context.Background(), tr)
	if _, _, err := ttsv.SolveReferenceStatsCtx(ctx, s, mgResolution()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON %q: %v", line, err)
		}
		seen[r.Span] = true
	}
	for _, want := range []string{"fem.stack", "fem.solve", "fem.assemble", "fem.precond", "sparse.cg"} {
		if !seen[want] {
			t.Errorf("trace missing %q span (have %v)", want, seen)
		}
	}
}

func TestDisableMetricsStopsRecording(t *testing.T) {
	defer ttsv.EnableMetrics()
	ttsv.DisableMetrics()
	s, err := ttsv.Fig4Block(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ttsv.SolveReferenceStats(s, mgResolution()); err != nil {
		t.Fatal(err)
	}
	snap := ttsv.Metrics()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("disabled registry recorded %d series", len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	}
	ttsv.EnableMetrics()
	if _, _, err := ttsv.SolveReferenceStats(s, mgResolution()); err != nil {
		t.Fatal(err)
	}
	if ttsv.Metrics().Counters["sparse.cg.solves"] != 1 {
		t.Errorf("re-enabled registry counted %d solves, want 1", ttsv.Metrics().Counters["sparse.cg.solves"])
	}
}
