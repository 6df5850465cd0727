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

func writeFloorplan(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fp.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const demoFP = `{
  "TileSide": 0.00075,
  "PlanePowers": [
    [[0.4, 0.05, 0.05], [0.4, 0.05, 0.05]],
    [[0.8, 0.1, 0.1], [0.4, 0.05, 0.05]]
  ]
}`

func TestPlanCLI(t *testing.T) {
	path := writeFloorplan(t, demoFP)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "12"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vias") || !strings.Contains(out, "max ΔT") {
		t.Errorf("output:\n%s", out)
	}
	// Four tile rows of counts printed (2x2 grid => 2 lines of 2 numbers).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Errorf("expected plan header + grid, got:\n%s", out)
	}
}

func TestPlanCLIModels(t *testing.T) {
	path := writeFloorplan(t, demoFP)
	var a, d bytes.Buffer
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "12", "-model", "A"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "12", "-model", "1D"}, &d); err != nil {
		t.Fatal(err)
	}
	if a.String() == d.String() {
		t.Error("A and 1D plans identical")
	}
	var b bytes.Buffer
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "12", "-model", "B", "-segments", "40"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "B(40)") {
		t.Errorf("Model B output: %s", b.String())
	}
}

func TestPlanCLIVerify(t *testing.T) {
	// Plan with Model B so the plan's own model matches the verifier's
	// calibration target; a Model A plan may legitimately draw a warning
	// since the verifier is calibrated against Model B.
	path := writeFloorplan(t, demoFP)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "13", "-model", "B", "-verify"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "full-chip 3-D verification") {
		t.Errorf("output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "plan holds chip-wide") {
		t.Errorf("verification did not confirm the plan:\n%s", buf.String())
	}
}

func TestPlanCLITraceAndMetrics(t *testing.T) {
	path := writeFloorplan(t, demoFP)
	trace := filepath.Join(t.TempDir(), "plan.ndjson")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "12", "-verify", "-trace", trace, "-metrics"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Span   string `json:"span"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
	}
	var runID int64
	tiles, solves := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch r.Span {
		case "plan.run":
			runID = r.ID
		case "plan.tile":
			tiles++
		case "fem.solve":
			solves++
		}
	}
	if runID == 0 {
		t.Error("no plan.run span")
	}
	if solves != 1 {
		t.Errorf("got %d fem.solve spans, want the -verify solve's one", solves)
	}
	if tiles != 4 {
		t.Errorf("got %d plan.tile spans for a 2×2 floorplan, want 4", tiles)
	}
	if !strings.Contains(buf.String(), "plan.tiles") {
		t.Errorf("-metrics dump missing plan.tiles:\n%s", buf.String())
	}
}

func TestPlanCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{}, &buf); err == nil {
		t.Error("missing floorplan accepted")
	}
	if err := run(context.Background(), []string{"-floorplan", "/does/not/exist.json"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeFloorplan(t, `{"TileSide": 0.00075, "Rows": 1}`)
	if err := run(context.Background(), []string{"-floorplan", bad}, &buf); err == nil {
		t.Error("unknown JSON field accepted")
	}
	path := writeFloorplan(t, demoFP)
	if err := run(context.Background(), []string{"-floorplan", path, "-model", "zzz"}, &buf); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(context.Background(), []string{"-floorplan", path, "-budget", "0.01"}, &buf); err == nil {
		t.Error("impossible budget accepted")
	}
	err := run(context.Background(), []string{"-floorplan", path, "-model", "B", "-segments", "10001"}, &buf)
	if err == nil || err.Error() != "segments must be in [1, 10000], got 10001" {
		t.Errorf("-segments 10001: %v, want the spec's segments error", err)
	}
	err = run(context.Background(), []string{"-floorplan", path, "-model", "all"}, &buf)
	if err == nil || err.Error() != "plan takes exactly one model, got 3" {
		t.Errorf("-model all: %v, want a one-model error", err)
	}
}
