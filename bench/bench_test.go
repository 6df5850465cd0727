package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload for one op per phase, traced, and checks
// that every metric BENCHMARK.json names is printed with its unit for every
// workload and that no output check failed — so the harness cannot rot
// without a failing test.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}

	var out bytes.Buffer
	args := []string{"-root", "..", "-seed", "1", "-seconds", "0.02", "-trace", "1", "-spans", t.TempDir()}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	units := make(map[string]string) // "workload metric" -> printed unit
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 {
			units[f[0]+" "+f[1]] = f[3]
		}
	}
	for _, w := range names {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if got := units[w+" "+m.Name]; got != m.Unit {
				t.Errorf("%s %s: printed unit %q, BENCHMARK.json says %q", w, m.Name, got, m.Unit)
			}
		}
	}
	var sum struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Unit string }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < len(names) {
		t.Errorf("summary: correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
	}
	if want := len(names) * len(spec.PerLayer); len(sum.Metrics) != want {
		t.Errorf("summary has %d metrics, want %d (every per-layer metric of every workload)", len(sum.Metrics), want)
	}
}
