package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	if err := run(context.Background(), nil, io.Discard); err == nil {
		t.Error("missing experiment accepted")
	}
	if err := run(context.Background(), []string{"fig4", "fig5"}, io.Discard); err == nil {
		t.Error("two experiments accepted")
	}
	if err := run(context.Background(), []string{"nonsense"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"-bogus", "fig4"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunQuickSweeps(t *testing.T) {
	for _, exp := range []string{"fig4", "fig6", "fig7"} {
		if err := run(context.Background(), []string{"-quick", exp}, io.Discard); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunQuickTable1AndCaseStudy(t *testing.T) {
	if err := run(context.Background(), []string{"-quick", "table1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "casestudy"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickCalibrate(t *testing.T) {
	if err := run(context.Background(), []string{"-quick", "calibrate"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-quick", "-csv", dir, "fig7"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(data), "\n", 2)[0]
	for _, col := range []string{"n", "A", "B(100)", "1D", "FVM"} {
		if !strings.Contains(head, col) {
			t.Errorf("CSV header %q missing column %q", head, col)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7_errors.csv")); err != nil {
		t.Errorf("error table CSV missing: %v", err)
	}
}

func TestRunPlotFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-quick", "-plot", "fig7"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "fig7.ndjson")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-precond", "mg", "-trace", trace, "-metrics", "fig7"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		seen[r.Span] = true
	}
	for _, want := range []string{"experiments.fig7", "sweep.run", "sweep.job", "fem.solve", "sparse.cg"} {
		if !seen[want] {
			t.Errorf("trace missing %q span (have %v)", want, seen)
		}
	}
	for _, want := range []string{"sweep.jobs", "sparse.cg.solves", "experiments.runs"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-metrics dump missing %q", want)
		}
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	if err := run(context.Background(), []string{"-quick", "planes"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "transient"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
