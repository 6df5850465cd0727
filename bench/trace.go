package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one NDJSON record of the in-memory trace: the benchmark's own
// bench.* spans around calls into public functions, plus the spans the
// program already emits (fem.*, sparse.cg, sweep.*, experiments.*,
// serve.<endpoint>).
type span struct {
	Name    string         `json:"span"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs"`

	self int64 // duration minus the time its children cover
}

// parseSpans decodes the trace and computes each span's self time. Children
// that ran in parallel can cover more than their parent's wall time; self
// time is then zero.
func parseSpans(b []byte, since time.Time) ([]*span, error) {
	var spans []*span
	byID := make(map[int64]*span)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		sp := &span{}
		if err := json.Unmarshal(sc.Bytes(), sp); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		byID[sp.ID] = sp
		// Spans of the traced server's warm-up predate the phase.
		if sp.StartNS >= since.UnixNano() {
			spans = append(spans, sp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	children := make(map[int64]int64)
	for _, sp := range byID {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.DurNS
		}
	}
	for _, sp := range spans {
		sp.self = max(sp.DurNS-children[sp.ID], 0)
	}
	return spans, nil
}

// spanSet indexes the phase's spans by name.
type spanSet struct {
	byName map[string][]*span
	byID   map[int64]*span
}

func newSpanSet(spans []*span) *spanSet {
	s := &spanSet{byName: make(map[string][]*span), byID: make(map[int64]*span)}
	for _, sp := range spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		s.byID[sp.ID] = sp
	}
	return s
}

// under returns the spans named name whose parent is named parent.
func (s *spanSet) under(name, parent string) []*span {
	var out []*span
	for _, sp := range s.byName[name] {
		if p := s.byID[sp.Parent]; p != nil && p.Name == parent {
			out = append(out, sp)
		}
	}
	return out
}

func totalMS(spans []*span, self bool) float64 {
	var ns int64
	for _, sp := range spans {
		if self {
			ns += sp.self
		} else {
			ns += sp.DurNS
		}
	}
	return float64(ns) / 1e6
}

func durations(spans []*span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		out[i] = time.Duration(sp.DurNS)
	}
	return out
}

func attrFloat(sp *span, key string) (float64, bool) {
	v, ok := sp.Attrs[key].(float64)
	return v, ok
}

// counters gives the change of the obs default registry over a phase.
type counters struct{ before, after obs.Snapshot }

func (c counters) count(name string) float64 {
	return float64(c.after.Counters[name] - c.before.Counters[name])
}

// hist returns the change of a histogram's count and sum. Sums are exact,
// unlike the histogram's power-of-two buckets.
func (c counters) hist(name string) (n, sum float64) {
	a, b := c.after.Histograms[name], c.before.Histograms[name]
	return float64(a.Count - b.Count), a.Sum - b.Sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer derives the per-layer metrics of a traced run: the traced phase's
// spans and registry deltas, the probes at the workload's problem size, and
// the tracing overhead against the untraced phase.
func perLayer(ctx context.Context, e *env, inst instance, trace []byte, before, after obs.Snapshot, plain, traced *recorder) (layers, extra []metric, err error) {
	spans, err := parseSpans(trace, traced.start)
	if err != nil {
		return nil, nil, err
	}
	ss := newSpanSet(spans)
	c := counters{before, after}
	ops := float64(max(traced.attempted, 1))

	// fem: the reference solve split into problem build (fem.stack's self
	// time), set-up (fem.solve minus its CG) and CG.
	stacks, solves := ss.byName["fem.stack"], ss.byName["fem.solve"]
	cgs := ss.under("sparse.cg", "fem.solve")
	nSolve := float64(max(len(solves), 1))
	setup := totalMS(solves, false) - totalMS(cgs, false)
	var iters, resid float64
	for _, sp := range cgs {
		it, _ := attrFloat(sp, "iterations")
		iters += it
		if r, ok := attrFloat(sp, "residual"); ok && r > resid {
			resid = r
		}
	}
	s, res := inst.problem()
	pr, err := probe(ctx, e, s, res)
	if err != nil {
		return nil, nil, err
	}
	// mg: from the phase where its ops ran multigrid; otherwise — the
	// default mesh is below the multigrid threshold, and a warm op builds no
	// hierarchy — from the probe's multigrid solve of the same problem.
	mgm, mgNote, buildNote := mgFrom(c), "", ""
	if mgm.solves == 0 {
		mgm, mgNote = pr.mg, "probe: no multigrid solve in the workload's ops"
		buildNote = mgNote
	}
	if mgm.builds == 0 {
		mgm.buildMS, buildNote = pr.mg.buildMS, "probe: no hierarchy built in the workload's ops"
	}
	layers = []metric{
		{Name: "fem.solves_per_op", Value: float64(len(solves)) / ops, Unit: "count"},
		{Name: "fem.problem_ms", Value: totalMS(stacks, true) / float64(max(len(stacks), 1)), Unit: "ms"},
		{Name: "fem.assemble_ms", Value: totalMS(ss.byName["fem.assemble"], false) / nSolve, Unit: "ms"},
		{Name: "fem.precond_ms", Value: totalMS(ss.byName["fem.precond"], false) / nSolve, Unit: "ms"},
		{Name: "fem.setup_ms", Value: setup / nSolve, Unit: "ms"},
		{Name: "fem.cg_ms", Value: totalMS(cgs, false) / nSolve, Unit: "ms"},
		{Name: "fem.pattern_hit_ratio", Value: ratio(c.count("fem.assemble.pattern.hits"),
			c.count("fem.assemble.pattern.hits")+c.count("fem.assemble.pattern.misses")), Unit: "ratio",
			Note: fmt.Sprintf("of %g assemblies", c.count("fem.assemble.pattern.hits")+c.count("fem.assemble.pattern.misses"))},
		{Name: "fem.mg_reuse_hit_ratio", Value: ratio(c.count("fem.mg.reuse.hits"), c.count("fem.mg.reuse.hits")+c.count("mg.builds")),
			Unit: "ratio", Note: fmt.Sprintf("of %g hierarchy requests", c.count("fem.mg.reuse.hits")+c.count("mg.builds"))},
		{Name: "fem.flux_balance_err", Value: pr.flux, Unit: "ratio", Note: "probe solve"},
		{Name: "sparse.cg_iters", Value: iters / float64(max(len(cgs), 1)), Unit: "count", Note: "mean per solve"},
		{Name: "sparse.cg_residual", Value: resid, Unit: "ratio", Note: "max"},
		{Name: "sparse.matvec_gbps", Value: pr.matvec.gbps, Unit: "GB/s", Note: pr.matvec.note},
		{Name: "sparse.triad_ws_gbps", Value: pr.triadWS.gbps, Unit: "GB/s", Note: pr.triadWS.note},
		{Name: "sparse.triad_dram_gbps", Value: pr.dram.gbps, Unit: "GB/s", Note: pr.dram.note},
		{Name: "sparse.matvec_frac_of_triad", Value: ratio(pr.matvec.gbps, pr.triadWS.gbps), Unit: "ratio"},
		{Name: "mg.build_ms", Value: mgm.buildMS, Unit: "ms", Note: buildNote},
		{Name: "mg.levels", Value: mgm.levels, Unit: "count", Note: mgNote},
		{Name: "mg.cycles_per_solve", Value: mgm.cyclesPerSolve, Unit: "count", Note: mgNote},
		{Name: "mg.cycle_fine_us", Value: mgm.fineUS, Unit: "us", Note: mgNote},
		{Name: "mg.cycle_coarse_us", Value: mgm.coarseUS, Unit: "us", Note: mgNote},
		{Name: "mg.rebuilds_recycled", Value: c.count("mg.rebuilds.recycled") / ops, Unit: "count", Note: "per op"},
		{Name: "core.modela_us", Value: pr.core[0], Unit: "us", Note: "Table I stack"},
		{Name: "core.modelb100_us", Value: pr.core[1], Unit: "us", Note: "Table I stack"},
		{Name: "core.modelb500_us", Value: pr.core[2], Unit: "us", Note: "Table I stack"},
		{Name: "core.model1d_us", Value: pr.core[3], Unit: "us", Note: "Table I stack"},
		{Name: "deck.parse_us", Value: pr.deck[0], Unit: "us", Note: "9-deck corpus"},
		{Name: "deck.lower_us", Value: pr.deck[1], Unit: "us", Note: "9-deck corpus"},
		{Name: "deck.render_us", Value: pr.deck[3], Unit: "us", Note: "9-deck corpus"},
		{Name: "deck.run_ms", Value: pr.deck[2] / 1e3, Unit: "ms", Note: "9-deck corpus"},
		{Name: "host.gc_cycles_per_op", Value: plain.gcCyclesPerOp(), Unit: "count"},
		{Name: "host.gc_cpu_frac", Value: plain.gcCPUFrac(), Unit: "ratio"},
		{Name: "host.numcpu", Value: float64(e.workers), Unit: "count"},
		{Name: "host.gomaxprocs", Value: float64(plain.procs), Unit: "count", Note: "timed phases"},
		{Name: "host.llc_mb", Value: e.llcMB, Unit: "MiB"},
		{Name: "trace.overhead_frac", Value: ratio(percentile(traced.lat, 50), percentile(plain.lat, 50)) - 1, Unit: "ratio"},
	}

	// Where one op is one solve, the fem phases must account for the op's
	// wall time.
	if ops := ss.byName["bench.op"]; len(ops) > 0 && len(ops) == len(stacks) {
		wall := totalMS(ops, false)
		phases := totalMS(stacks, true) + totalMS(solves, false)
		gap := math.Abs(phases-wall) / wall
		extra = append(extra, metric{Name: "fem.phase_gap_frac", Value: gap, Unit: "ratio", Note: "|problem+setup+cg - op wall| / op wall"})
		if gap > 0.05 {
			return nil, nil, fmt.Errorf("fem phases sum to %.3f ms against an op wall of %.3f ms (gap %.1f%% > 5%%)", phases, wall, 100*gap)
		}
	}
	extra = append(extra, workloadLayers(ss, c, ops)...)
	if x, ok := inst.(extraLayers); ok {
		extra = append(extra, x.extras()...)
	}
	extra = append(extra, selfTimes(spans, ops)...)
	return layers, extra, nil
}

// workloadLayers are the layer metrics of layers only some workloads
// exercise: the experiments calls of a paper run, the sweep engine, and the
// serve path.
func workloadLayers(ss *spanSet, c counters, ops float64) []metric {
	var out []metric
	var calls []string
	for name := range ss.byName {
		if call, ok := strings.CutPrefix(name, "bench.experiments."); ok {
			calls = append(calls, call)
		}
	}
	sort.Strings(calls)
	for _, call := range calls {
		out = append(out, metric{Name: "experiments." + call + "_ms", Value: percentile(durations(ss.byName["bench.experiments."+call]), 50), Unit: "ms", Note: "median"})
	}
	if jobs := ss.byName["sweep.job"]; len(jobs) > 0 {
		var capacity float64
		for _, run := range ss.byName["sweep.run"] {
			w, _ := attrFloat(run, "workers")
			capacity += float64(run.DurNS) / 1e6 * w
		}
		out = append(out,
			metric{Name: "sweep.job_p50_ms", Value: percentile(durations(jobs), 50), Unit: "ms"},
			metric{Name: "sweep.busy_frac", Value: ratio(totalMS(jobs, false), capacity), Unit: "ratio", Note: "job time / (run wall x workers)"})
	}
	reqs := ss.byName["bench.request"]
	if len(reqs) == 0 {
		return out
	}
	var server []*span
	for name, sp := range ss.byName {
		if strings.HasPrefix(name, "serve.") {
			server = append(server, sp...)
		}
	}
	client := percentile(durations(reqs), 50)
	out = append(out,
		metric{Name: "serve.server_p50_ms", Value: percentile(durations(server), 50), Unit: "ms", Note: "serve.<endpoint> spans"},
		metric{Name: "serve.outside_span_p50_ms", Value: client - percentile(durations(server), 50), Unit: "ms", Note: "client p50 - server span p50"})
	byKind := make(map[string][]*span)
	for _, sp := range reqs {
		k, _ := sp.Attrs["kind"].(string)
		byKind[k] = append(byKind[k], sp)
	}
	for _, k := range []string{"solve_a", "solve_ref", "deck", "sweep"} {
		out = append(out, metric{Name: "serve." + k + "_p50_ms", Value: percentile(durations(byKind[k]), 50), Unit: "ms",
			Note: fmt.Sprintf("n=%d", len(byKind[k]))})
	}
	requests := 0.0
	for name, v := range c.after.Counters {
		if strings.HasPrefix(name, "serve.") && strings.HasSuffix(name, ".requests") {
			requests += float64(v - c.before.Counters[name])
		}
	}
	hits, misses := c.count("serve.pool.hits"), c.count("serve.pool.misses")
	out = append(out,
		metric{Name: "serve.coalesced_ratio", Value: ratio(c.count("serve.coalesced"), requests), Unit: "ratio", Note: fmt.Sprintf("of %g requests", requests)},
		metric{Name: "serve.pool_hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio", Note: fmt.Sprintf("of %g pooled runs", hits+misses)})
	return out
}

// selfTimes reports every span name's self time per op, largest first:
// where the traced phase spent its time.
func selfTimes(spans []*span, ops float64) []metric {
	self := make(map[string]int64)
	count := make(map[string]int)
	for _, sp := range spans {
		self[sp.Name] += sp.self
		count[sp.Name]++
	}
	var out []metric
	for name, ns := range self {
		out = append(out, metric{Name: "self." + name + "_ms_per_op", Value: float64(ns) / 1e6 / ops, Unit: "ms",
			Note: fmt.Sprintf("%d spans", count[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}
