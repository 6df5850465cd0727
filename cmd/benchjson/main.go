// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document. It exists so `make bench-json` can archive
// reference-solver costs (BENCH_ref.json) in a form other tooling — and
// future sessions comparing solver work — can diff without scraping the
// bench text format.
//
//	go test -run '^$' -bench Reference -benchtime 2x . | benchjson -o BENCH_ref.json
//
// Every benchmark line becomes one record: the trimmed name (without the
// Benchmark prefix and -P GOMAXPROCS suffix), the b.N iteration count,
// ns/op, and all remaining value/unit pairs (B/op, allocs/op, custom
// b.ReportMetric units such as cgiters or mglevels) in a metrics map.
// Repeated lines for the same benchmark (go test -count N) collapse to the
// fastest run, with elementwise minima for B/op and allocs/op — the minimum
// filters the additive scheduling noise a loaded host stacks on every run,
// so min-of-N is a far more stable basis for comparison than any single run.
//
// With -compare the parsed input is diffed against a previously archived
// document instead of being re-emitted; the command fails when any
// benchmark's host-independent columns — B/op, allocs/op and the cgiters CG
// iteration count — regress past -alloc-threshold percent. Wall time is
// printed next to them but never gated: on a shared host its run-to-run
// spread exceeds any bound tight enough to mean something. This is the
// engine behind `make bench-compare`:
//
//	go test -run '^$' -bench Reference -benchtime 2x . | benchjson -compare BENCH_ref.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark result.
type Record struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the whole archive: the environment header lines go test
// prints, then every benchmark. GoMaxProcs and NumCPU are captured from
// benchjson's own process — it runs on the same host, in the same pipeline,
// as the benchmarks it archives — so a comparison against an archive from a
// differently-sized machine is recognizable as such.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"numcpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "write JSON here instead of stdout")
	refPath := fs.String("compare", "", "diff the input against this archived JSON instead of emitting JSON")
	allocThreshold := fs.Float64("alloc-threshold", 10, "with -compare, fail when any B/op, allocs/op or cgiters regresses by more than this percentage (ns/op is reported, not gated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc, err := parse(in)
	if err != nil {
		return err
	}
	doc.GoMaxProcs = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	if *refPath != "" {
		return compare(doc, *refPath, *allocThreshold, out)
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// memUnits are the deterministic allocation metrics; -count runs merge them
// by elementwise minimum.
var memUnits = [...]string{"B/op", "allocs/op"}

// gatedUnits are the host-independent metrics compare gates: allocation is
// deterministic for a fixed workload, and so is the CG iteration count.
var gatedUnits = [...]string{"B/op", "allocs/op", "cgiters"}

// compare diffs doc against the archived reference document, one line per
// benchmark, and fails when any matched benchmark's B/op, allocs/op or
// cgiters exceeds its reference by more than threshold percent. ns/op is
// printed with its delta but never fails the comparison. A gated metric is
// only compared when both sides report it — the archive may predate its
// capture. Benchmarks present on only one side are reported but never fail
// the comparison. Getting leaner is never a failure.
func compare(doc *Document, refPath string, threshold float64, w io.Writer) error {
	data, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	var ref Document
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("reference %s: %w", refPath, err)
	}
	refByName := make(map[string]Record, len(ref.Benchmarks))
	for _, r := range ref.Benchmarks {
		refByName[r.Name] = r
	}
	var regressed []string
	matched := 0
	for _, b := range doc.Benchmarks {
		r, ok := refByName[b.Name]
		if !ok || r.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-40s %14.0f ns/op   (no reference)\n", b.Name, b.NsPerOp)
			continue
		}
		matched++
		delta := 100 * (b.NsPerOp - r.NsPerOp) / r.NsPerOp
		mark := ""
		var mem strings.Builder
		for _, unit := range gatedUnits {
			bv, bok := b.Metrics[unit]
			rv, rok := r.Metrics[unit]
			if !bok || !rok || rv <= 0 {
				continue
			}
			md := 100 * (bv - rv) / rv
			fmt.Fprintf(&mem, "   %s %+.1f%%", unit, md)
			if md > threshold {
				mark = "   REGRESSION"
				regressed = append(regressed, fmt.Sprintf("%s (%+.1f%% %s)", b.Name, md, unit))
			}
		}
		fmt.Fprintf(w, "%-40s %14.0f ns/op   ref %14.0f   %+6.1f%%%s%s\n",
			b.Name, b.NsPerOp, r.NsPerOp, delta, mem.String(), mark)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark on input matches the reference %s", refPath)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d regression(s) past %g%% in B/op, allocs/op or cgiters vs %s: %s",
			len(regressed), threshold, refPath, strings.Join(regressed, ", "))
	}
	fmt.Fprintf(w, "ok: %d benchmark(s) within %g%% B/op, allocs/op and cgiters of %s (ns/op not gated)\n", matched, threshold, refPath)
	return nil
}

// mergeMin collapses two runs of the same benchmark (go test -count N emits
// one line per run) into the least-noisy estimate: the run with the lower
// wall time wins outright — its iteration count and custom metrics (cgiters,
// speedup, ...) stay together as one coherent observation — while the
// deterministic memory units take the elementwise minimum, since scheduling
// noise only ever adds allocations.
func mergeMin(a, b Record) Record {
	best, other := a, b
	if b.NsPerOp < a.NsPerOp {
		best, other = b, a
	}
	for _, unit := range memUnits {
		ov, ok := other.Metrics[unit]
		if !ok {
			continue
		}
		if bv, ok := best.Metrics[unit]; !ok || ov < bv {
			if best.Metrics == nil {
				best.Metrics = map[string]float64{}
			}
			best.Metrics[unit] = ov
		}
	}
	return best
}

func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Record{}}
	byName := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			rec, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			if i, ok := byName[rec.Name]; ok {
				doc.Benchmarks[i] = mergeMin(doc.Benchmarks[i], rec)
			} else {
				byName[rec.Name] = len(doc.Benchmarks)
				doc.Benchmarks = append(doc.Benchmarks, rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on input (run with -bench)")
	}
	return doc, nil
}

func parseBench(line string) (Record, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Record{}, fmt.Errorf("want at least name, count and one value/unit pair")
	}
	rec := Record{Name: strings.TrimPrefix(f[0], "Benchmark")}
	if i := strings.LastIndex(rec.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(rec.Name[i+1:]); err == nil {
			rec.Procs = p
			rec.Name = rec.Name[:i]
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("iteration count %q: %w", f[1], err)
	}
	rec.Iterations = n
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Record{}, fmt.Errorf("metric value %q: %w", f[i], err)
		}
		if unit := f[i+1]; unit == "ns/op" {
			rec.NsPerOp = v
		} else {
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[unit] = v
		}
	}
	return rec, nil
}
