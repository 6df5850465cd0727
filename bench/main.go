// Command bench is the repository's end-to-end benchmark: the only
// performance numbers later changes may cite. It generates each workload's
// inputs from a seed, drives them through the public entry points of the
// experiments, fem, sweep, deck and serve packages in one process, checks
// every output, and prints one line per (workload, metric) followed by a
// JSON summary as the last line.
//
//	bash bench/run.sh -workload fresh -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -seed 2 -sets 2     # repeatability: every workload twice
//	cd bench && go run . -root .. -seed 1 # without the wrapper
//
// With -trace 1 a run measures half its time untraced and half traced,
// prints the per-layer metrics and writes the collected spans as NDJSON.
// See README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// options are the parsed command-line flags.
type options struct {
	workloads []workload
	seconds   float64
	trace     bool
	spans     string
}

// setupsPerRun is how many times a run sets its workload up; setup_s is
// their median.
const setupsPerRun = 5

// setups is the number of set-ups of one run. A run shorter than a second,
// as in the smoke test, sets up once.
func (o options) setups() int {
	if o.seconds < 1 {
		return 1
	}
	return setupsPerRun
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies how the value was obtained (e.g. "probe", "n=17").
	Note string `json:"note,omitempty"`
}

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	// Extra is printed but not part of the summary: an untraced run's demoted
	// metrics, and a traced run's metrics of layers only some workloads
	// exercise (experiments, sweep, serve).
	Extra []metric `json:"extra,omitempty"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 12, "timed seconds per workload run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	sets := fs.Int("sets", 1, "run the untraced workloads this many times, alternating their order, and compare the sets against the bounds in BENCHMARK.json")
	jsonPath := fs.String("json", "", "also write every result as JSON to this file")
	spans := fs.String("spans", "", "directory traced runs write spans-<workload>.ndjson to (default .bench_build under -root)")
	root := fs.String("root", ".", "repository root (reads results/, testdata/decks/ and BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *sets < 1 {
		return fmt.Errorf("-seconds and -sets must be positive")
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		return err
	}
	e, err := newEnv(*root, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# host numcpu=%d gomaxprocs=%d go=%s cpu=%q llc_mb=%s seed=%d seconds=%g\n",
		e.workers, runtime.GOMAXPROCS(0), runtime.Version(), e.cpu, fmtFloat(e.llcMB), *seed, *seconds)
	o := options{workloads: ws, seconds: *seconds, trace: *trace == 1, spans: *spans}
	var results []*result
	if *sets > 1 {
		if o.trace {
			return fmt.Errorf("-sets compares untraced runs; drop -trace")
		}
		results, err = repeatability(ctx, e, o, *sets, out)
	} else {
		results, err = runAll(ctx, e, o, out)
	}
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := summary(out, results, o.trace); err != nil {
		return err
	}
	for _, r := range results {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed their output checks", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runAll runs each selected workload once, printing its metrics.
func runAll(ctx context.Context, e *env, o options, out io.Writer) ([]*result, error) {
	var results []*result
	for _, w := range o.workloads {
		r, err := runWorkload(ctx, e, w, o)
		if err != nil {
			return nil, err
		}
		printResult(out, r)
		results = append(results, r)
	}
	return results, nil
}

// repeatability runs every selected workload sets times, reversing the
// workload order on every other set, and reports per (workload, metric)
// whether each set agrees with the first within the metric's bound. The
// demoted metrics have no bound; their largest change from the first set is
// printed instead.
func repeatability(ctx context.Context, e *env, o options, sets int, out io.Writer) ([]*result, error) {
	bounds, err := readBounds(e.root)
	if err != nil {
		return nil, err
	}
	byWorkload := make(map[string][]*result)
	var all []*result
	for s := 0; s < sets; s++ {
		order := append([]workload(nil), o.workloads...)
		if s%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		fmt.Fprintf(out, "# set %d\n", s+1)
		rs, err := runAll(ctx, e, options{workloads: order, seconds: o.seconds}, out)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
		all = append(all, rs...)
	}
	disagree := 0
	for _, w := range o.workloads {
		rs := byWorkload[w.name]
		metrics := func(r *result) []metric { return append(append([]metric(nil), r.EndToEnd...), r.Extra...) }
		for k, m := range metrics(rs[0]) {
			line := fmt.Sprintf("sets %s %s", w.name, m.Name)
			change := 0.0
			for _, r := range rs {
				v := metrics(r)[k].Value
				line += " " + fmtFloat(v)
				if m.Value != 0 {
					change = max(change, math.Abs(v-m.Value)/math.Abs(m.Value))
				}
			}
			b, bounded := bounds[m.Name]
			switch {
			case !bounded:
				fmt.Fprintf(out, "%s %s change=%.3f per-layer\n", line, m.Unit, change)
			case change > b:
				disagree++
				fmt.Fprintf(out, "%s %s bound=%g DISAGREE\n", line, m.Unit, b)
			default:
				fmt.Fprintf(out, "%s %s bound=%g agree\n", line, m.Unit, b)
			}
		}
	}
	fmt.Fprintf(out, "# sets: %d (workload, metric) pairs disagree beyond their bound\n", disagree)
	return all, nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printResult writes one line per (workload, metric): name, value with all
// its digits, unit, and an optional note.
func printResult(out io.Writer, r *result) {
	fmt.Fprintf(out, "# %s attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, group := range [][]metric{r.EndToEnd, r.Layers, r.Extra} {
		for _, m := range group {
			line := fmt.Sprintf("%s %s %s %s", r.Workload, m.Name, fmtFloat(m.Value), m.Unit)
			if m.Note != "" {
				line += " (" + m.Note + ")"
			}
			fmt.Fprintln(out, line)
		}
	}
}

// summary prints the last line: one JSON object with the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one. A run of
// several workloads prefixes each metric name with its workload.
func summary(out io.Writer, results []*result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.Layers
		}
		for _, m := range ms {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			s.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	s.Correct = s.Failed == 0
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
