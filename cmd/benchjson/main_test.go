package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 3.00GHz
BenchmarkReferenceSolveDefault-8   	      10	 111222333 ns/op	 1234 B/op	      56 allocs/op
BenchmarkReferenceMGRefined2-8     	       5	 222333444 ns/op	      14.0 cgiters	       5.0 mglevels	 99 B/op	 7 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "repro" || doc.Goos != "linux" || doc.CPU != "Example CPU @ 3.00GHz" {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "ReferenceSolveDefault" || b0.Procs != 8 || b0.Iterations != 10 || b0.NsPerOp != 111222333 {
		t.Fatalf("first record = %+v", b0)
	}
	if b0.Metrics["B/op"] != 1234 || b0.Metrics["allocs/op"] != 56 {
		t.Fatalf("first metrics = %+v", b0.Metrics)
	}
	b1 := doc.Benchmarks[1]
	if b1.Name != "ReferenceMGRefined2" || b1.Metrics["cgiters"] != 14 || b1.Metrics["mglevels"] != 5 {
		t.Fatalf("second record = %+v", b1)
	}
}

// -count N emits one line per run; the parser must collapse them to the
// fastest run with elementwise-minimum memory metrics, keeping the fast
// run's custom metrics as one coherent observation.
func TestParseMergesCountRuns(t *testing.T) {
	const counted = `goos: linux
BenchmarkReferenceSolveDefault-8   	      10	 150000000 ns/op	 2000 B/op	      60 allocs/op	 5.0 cgiters
BenchmarkReferenceSolveDefault-8   	      10	 100000000 ns/op	 1500 B/op	      70 allocs/op	 6.0 cgiters
BenchmarkReferenceSolveDefault-8   	      10	 120000000 ns/op	 1000 B/op	      80 allocs/op	 7.0 cgiters
PASS
`
	doc, err := parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1 merged", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.NsPerOp != 100000000 {
		t.Fatalf("ns/op = %v, want the fastest run's 1e8", b.NsPerOp)
	}
	if b.Metrics["B/op"] != 1000 || b.Metrics["allocs/op"] != 60 {
		t.Fatalf("memory metrics = %+v, want elementwise minima 1000/60", b.Metrics)
	}
	if b.Metrics["cgiters"] != 6 {
		t.Fatalf("cgiters = %v, want the fastest run's 6", b.Metrics["cgiters"])
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Fatal("accepted input with no benchmark lines")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-4 notanumber 5 ns/op\n")); err == nil {
		t.Fatal("accepted a malformed count")
	}
}

// writeRef archives sample (scaled by factor on ns/op) as a reference JSON
// for the compare tests.
func writeRef(t *testing.T, json string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const refJSON = `{
  "benchmarks": [
    {"name": "ReferenceSolveDefault", "iterations": 10, "ns_per_op": 100000000},
    {"name": "ReferenceMGRefined2", "iterations": 5, "ns_per_op": 222333444}
  ]
}`

func TestCompareWithinThresholdPasses(t *testing.T) {
	// Sample's ReferenceSolveDefault runs 111222333 ns/op vs a 1e8 reference:
	// an 11.2% wall-time regression, reported but never gated — wall time is
	// host-dependent.
	ref := writeRef(t, refJSON)
	var buf bytes.Buffer
	if err := run([]string{"-compare", ref, "-alloc-threshold", "0"}, strings.NewReader(sample), &buf); err != nil {
		t.Fatalf("wall-time delta failed the compare: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "ok: 2 benchmark(s) within 0% B/op, allocs/op and cgiters") {
		t.Errorf("no pass summary:\n%s", out)
	}
	if !strings.Contains(out, "+11.2%") {
		t.Errorf("delta not reported:\n%s", out)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	// The CG iteration count is host-independent, so it is gated: sample's
	// ReferenceMGRefined2 takes 14 iterations against an archived 12.
	ref := writeRef(t, `{"benchmarks": [
    {"name": "ReferenceMGRefined2", "iterations": 5, "ns_per_op": 222333444, "metrics": {"cgiters": 12}}
  ]}`)
	var buf bytes.Buffer
	err := run([]string{"-compare", ref}, strings.NewReader(sample), &buf)
	if err == nil {
		t.Fatalf("16.7%% cgiters regression passed a 10%% threshold:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "ReferenceMGRefined2") || !strings.Contains(err.Error(), "cgiters") {
		t.Errorf("error does not name the regressed benchmark and metric: %v", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("regression not marked in the table:\n%s", buf.String())
	}
}

const refWithMemJSON = `{
  "benchmarks": [
    {"name": "ReferenceSolveDefault", "iterations": 10, "ns_per_op": 111222333,
     "metrics": {"B/op": 1234, "allocs/op": 40}},
    {"name": "ReferenceMGRefined2", "iterations": 5, "ns_per_op": 222333444,
     "metrics": {"B/op": 99, "allocs/op": 7}}
  ]
}`

func TestCompareFailsOnAllocRegression(t *testing.T) {
	// Sample's ReferenceSolveDefault allocates 56/op vs a reference of 40:
	// +40%, past the 10% default alloc threshold even though ns/op matches.
	ref := writeRef(t, refWithMemJSON)
	var buf bytes.Buffer
	err := run([]string{"-compare", ref}, strings.NewReader(sample), &buf)
	if err == nil {
		t.Fatalf("40%% alloc regression passed the 10%% default threshold:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "ReferenceSolveDefault") {
		t.Errorf("error does not name the regressed metric: %v", err)
	}
	if !strings.Contains(buf.String(), "allocs/op +40.0%") {
		t.Errorf("alloc delta not reported in the table:\n%s", buf.String())
	}
}

func TestCompareAllocThresholdFlag(t *testing.T) {
	// The same +40% alloc delta passes when -alloc-threshold is raised.
	ref := writeRef(t, refWithMemJSON)
	var buf bytes.Buffer
	if err := run([]string{"-compare", ref, "-alloc-threshold", "50"}, strings.NewReader(sample), &buf); err != nil {
		t.Fatalf("alloc delta within the raised threshold failed: %v\n%s", err, buf.String())
	}
}

func TestCompareSkipsMemWithoutReferenceMetrics(t *testing.T) {
	// refJSON predates memory capture: B/op and allocs/op must not be gated
	// (TestCompareWithinThresholdPasses covers the passing path; this one
	// pins the table output).
	ref := writeRef(t, refJSON)
	var buf bytes.Buffer
	if err := run([]string{"-compare", ref, "-alloc-threshold", "0"}, strings.NewReader(sample), &buf); err != nil {
		t.Fatalf("metric-free reference gated memory anyway: %v\n%s", err, buf.String())
	}
	if out := buf.String(); strings.Contains(out, "B/op +") || strings.Contains(out, "B/op -") {
		t.Errorf("memory delta reported without reference metrics:\n%s", out)
	}
}

func TestCompareIgnoresUnmatchedBenchmarks(t *testing.T) {
	// Only one of the two input benchmarks has a reference; the other is
	// reported but cannot fail the run.
	ref := writeRef(t, `{"benchmarks": [{"name": "ReferenceMGRefined2", "iterations": 5, "ns_per_op": 222333444}]}`)
	var buf bytes.Buffer
	if err := run([]string{"-compare", ref}, strings.NewReader(sample), &buf); err != nil {
		t.Fatalf("unmatched benchmark failed the compare: %v", err)
	}
	if !strings.Contains(buf.String(), "(no reference)") {
		t.Errorf("unmatched benchmark not flagged:\n%s", buf.String())
	}
}

func TestCompareRejectsDisjointSets(t *testing.T) {
	ref := writeRef(t, `{"benchmarks": [{"name": "SomethingElse", "iterations": 1, "ns_per_op": 5}]}`)
	var buf bytes.Buffer
	if err := run([]string{"-compare", ref}, strings.NewReader(sample), &buf); err == nil {
		t.Fatal("compare with zero matched benchmarks passed")
	}
}

func TestCompareRejectsBadReference(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-compare", "/does/not/exist.json"}, strings.NewReader(sample), &buf); err == nil {
		t.Fatal("missing reference accepted")
	}
	ref := writeRef(t, "not json")
	if err := run([]string{"-compare", ref}, strings.NewReader(sample), &buf); err == nil {
		t.Fatal("malformed reference accepted")
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name": "ReferenceSolveDefault"`) {
		t.Errorf("JSON output missing record:\n%s", buf.String())
	}
}

// The archive header must record the parallelism of the producing host, so a
// comparison against an archive from a differently-sized machine is
// recognizable as such.
func TestRunRecordsHostParallelism(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", doc.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if doc.NumCPU != runtime.NumCPU() {
		t.Errorf("numcpu = %d, want %d", doc.NumCPU, runtime.NumCPU())
	}
}
