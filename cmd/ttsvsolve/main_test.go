package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAllModels(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "all", "-r", "8", "-segments", "20"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"A", "B(20)", "1D", "max ΔT", "block: 3 planes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleModels(t *testing.T) {
	for _, m := range []string{"A", "B", "1D"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-model", m, "-r", "6", "-segments", "10"}, &buf); err != nil {
			t.Fatalf("model %s: %v", m, err)
		}
		if !strings.Contains(buf.String(), "max ΔT") {
			t.Errorf("model %s: no result printed", m)
		}
	}
}

func TestRunReference(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "ref", "-r", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FVM reference") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestRunCluster(t *testing.T) {
	var one, four bytes.Buffer
	if err := run(context.Background(), []string{"-model", "A", "-r", "10", "-tsi", "20", "-td", "4", "-tl", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-model", "A", "-r", "10", "-tsi", "20", "-td", "4", "-tl", "1", "-vias", "4"}, &four); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(four.String(), "×4") {
		t.Errorf("cluster count not reported: %s", four.String())
	}
	if one.String() == four.String() {
		t.Error("cluster split changed nothing")
	}
}

func TestRunAspectRatioWarning(t *testing.T) {
	var buf bytes.Buffer
	// r = 1 µm with thick planes: aspect ratio way past 10.
	if err := run(context.Background(), []string{"-model", "1D", "-r", "1", "-tsi", "45"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "warning") {
		t.Errorf("no aspect-ratio warning:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "bogus"}, &buf); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(context.Background(), []string{"-r", "-5"}, &buf); err == nil {
		t.Error("negative radius accepted")
	}
	if err := run(context.Background(), []string{"-planes", "1"}, &buf); err == nil {
		t.Error("single plane accepted")
	}
	if err := run(context.Background(), []string{"-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestModelSpecChecks: the CLI builds its models through deck.ModelSpec, so
// a Model B ladder past deck.MaxSegments fails with the spec's error before
// anything is allocated, as it does in a deck or a ttsvd request.
func TestModelSpecChecks(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-model", "B", "-segments", "10001"}, &buf)
	if err == nil || err.Error() != "segments must be in [1, 10000], got 10001" {
		t.Errorf("-segments 10001: %v, want the spec's segments error", err)
	}
}

// -v reports what the reference solve did: at the default mesh the grid
// rule's banded Cholesky solve, with its half-bandwidth, a fresh factor, the
// true residual and the time split between factor and sweeps.
func TestVerboseReportsDirectSolve(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "ref", "-r", "10", "-v"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solver: direct (banded Cholesky, half-bandwidth 27, new factor), 0 iterations, residual ", "solver: factor ", ", sweeps "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-v output lacks %q:\n%s", want, buf.String())
		}
	}
}

// A multigrid reference solve behind -trace must emit a parseable NDJSON
// span chain covering assembly → preconditioner setup → CG, and -metrics
// must dump the solver series.
func TestRunTraceAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "ref", "-r", "10", "-precond", "mg", "-trace", path, "-metrics"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Span   string `json:"span"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
	}
	byName := map[string][]rec{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		byName[r.Span] = append(byName[r.Span], r)
	}
	solves := byName["fem.solve"]
	if len(solves) != 1 {
		t.Fatalf("got %d fem.solve spans, want 1 (spans: %v)", len(solves), byName)
	}
	for _, name := range []string{"fem.assemble", "fem.precond", "sparse.cg"} {
		rs := byName[name]
		if len(rs) == 0 {
			t.Errorf("trace missing %q span", name)
			continue
		}
		if rs[0].Parent != solves[0].ID {
			t.Errorf("%s parented to %d, want fem.solve id %d", name, rs[0].Parent, solves[0].ID)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "trace: wrote "+path) {
		t.Errorf("trace destination not reported:\n%s", out)
	}
	for _, want := range []string{"counter", "sparse.cg.solves", "sparse.cg.iterations"} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics dump missing %q:\n%s", want, out)
		}
	}
}

func TestRunPprofFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-model", "1D", "-pprof", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pprof: serving on http://127.0.0.1:") {
		t.Errorf("pprof address not reported:\n%s", buf.String())
	}
}

func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "block.json")
	if err := os.WriteFile(path, []byte(`{"R": 8e-6, "NumPlanes": 4, "Fill": "W"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-config", path, "-model", "1D"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 planes") || !strings.Contains(out, "r = 8 µm") {
		t.Errorf("config not applied:\n%s", out)
	}
	// An explicit flag overrides the config.
	buf.Reset()
	if err := run(context.Background(), []string{"-config", path, "-model", "1D", "-r", "12"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "r = 12 µm") {
		t.Errorf("flag did not override config:\n%s", buf.String())
	}
	if err := run(context.Background(), []string{"-config", filepath.Join(dir, "missing.json")}, &buf); err == nil {
		t.Error("missing config accepted")
	}
}
