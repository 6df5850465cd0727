package deck

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sweep"
)

// Options configures a deck run. Workers feeds the sweep and plan engine
// pools only — never the reference solver's internal parallelism — so
// results are bit-identical for any worker count.
type Options struct {
	// Workers is the engine pool size for .sweep and .plan analyses;
	// values < 1 select GOMAXPROCS. A workers= parameter on the analysis
	// card overrides it.
	Workers int
	// Sweep controls sharding, checkpoint journaling, resumption and
	// merging of .sweep analyses; the zero value runs sweeps in-process
	// with no journal, exactly as before.
	Sweep SweepControl
}

// SweepControl shards, journals, resumes and merges .sweep analyses. Shard,
// JournalPath, Resume and MergePaths apply to the deck's sweep analysis and
// therefore require the deck to contain exactly one analysis, a sweep
// (RunScenario rejects anything else — a journal file checkpoints one batch).
type SweepControl struct {
	// Shard selects one contiguous slice of the sweep's job list; the
	// zero spec runs the whole batch. The report then covers only the
	// shard's fully-contained value rows and carries a shard header; the
	// journal (not the shard report) is the merge artifact.
	Shard sweep.ShardSpec
	// JournalPath, when set, checkpoints every completed point to this
	// NDJSON file, creating or truncating it (appending when Resume is set).
	JournalPath string
	// Resume replays the completed points of an existing JournalPath file
	// instead of re-solving them; a missing or empty file starts fresh. The
	// journal's shard spec must match Shard.
	Resume bool
	// MergePaths, when non-empty, skips solving entirely: the named shard
	// journals are merged (they must jointly cover every point) and the
	// report is rendered from the replayed outcomes — byte-identical to a
	// single-process run of the same deck. Exclusive with Shard/JournalPath.
	MergePaths []string
	// Progress, when set, is called once per completed point. Calls arrive
	// concurrently from worker goroutines; the callback must be safe for
	// concurrent use.
	Progress func(SweepProgress)
}

// active reports whether any per-sweep control (shard/journal/merge) is set.
func (c SweepControl) active() bool {
	return !c.Shard.IsZero() || c.JournalPath != "" || len(c.MergePaths) > 0
}

// SweepProgress is one completed sweep point, as delivered to
// SweepControl.Progress and streamed by the solve service's /sweep endpoint.
type SweepProgress struct {
	// Index is the point's global batch index; Total the batch size.
	Index int `json:"i"`
	Total int `json:"n"`
	// Label is the job label, e.g. "r=1e-05/fvm-ref".
	Label string `json:"label"`
	// MaxDT is the point's peak temperature rise (valid when Err is empty).
	MaxDT float64 `json:"max_dt"`
	// Err carries the point's failure, empty on success.
	Err string `json:"error,omitempty"`
	// Replayed reports that the point was replayed from a checkpoint
	// journal instead of solved.
	Replayed bool `json:"replayed,omitempty"`
	// RuntimeNS is the point's solve wall time; a replayed point reports
	// the time of the solve that journaled it.
	RuntimeNS int64 `json:"runtime_ns,omitempty"`
}

// Result collects the outputs of every analysis card of a deck, in deck
// order.
type Result struct {
	// Title echoes the deck title.
	Title string
	// Analyses holds one entry per analysis card.
	Analyses []AnalysisResult
}

// AnalysisResult is one analysis card's output; the fields matching Kind are
// set.
type AnalysisResult struct {
	// Kind is "op", "tran", "sweep" or "plan".
	Kind string
	// Op holds steady-state results, one per model (Kind "op").
	Op []*core.Result
	// Tran holds the transient trace (Kind "tran").
	Tran *core.TransientResult
	// Sweep fields (Kind "sweep"): DT[i][j] is the max rise at Values[i]
	// under Models[j]. A sharded run sets SweepShard and trims Values/DT to
	// the value rows wholly inside the shard (SweepTotalValues keeps the
	// full batch size); unsharded runs leave both zero, so their reports
	// are byte-identical to before sharding existed.
	SweepParam       string
	SweepValues      []float64
	SweepModels      []string
	SweepDT          [][]float64
	SweepShard       string
	SweepTotalValues int
	// Plan fields (Kind "plan").
	Plan       *plan.Result
	PlanModel  string
	PlanBudget float64
}

// Run lowers the deck and executes every analysis in order. The engines
// record their spans into ctx's tracer, if any (obs.ContextWithTracer).
func Run(ctx context.Context, d *Deck, opt Options) (*Result, error) {
	sc, err := d.Lower()
	if err != nil {
		return nil, err
	}
	return RunScenario(ctx, sc, opt)
}

// RunScenario executes an already-lowered scenario.
func RunScenario(ctx context.Context, sc *Scenario, opt Options) (*Result, error) {
	if opt.Sweep.active() {
		if len(sc.Analyses) != 1 || sc.Analyses[0].Kind != "sweep" {
			return nil, fmt.Errorf("deck: shard/journal/merge controls checkpoint one batch and require a deck with exactly one analysis, a .sweep (this deck has %d)", len(sc.Analyses))
		}
		if len(opt.Sweep.MergePaths) > 0 && (!opt.Sweep.Shard.IsZero() || opt.Sweep.JournalPath != "") {
			return nil, fmt.Errorf("deck: merge mode replays existing journals and cannot be combined with -shard or -journal")
		}
	}
	res := &Result{Title: sc.Title}
	for i := range sc.Analyses {
		a := &sc.Analyses[i]
		ar, err := runAnalysis(ctx, sc, a, opt)
		if err != nil {
			return nil, err
		}
		res.Analyses = append(res.Analyses, *ar)
	}
	return res, nil
}

func runAnalysis(ctx context.Context, sc *Scenario, a *Analysis, opt Options) (*AnalysisResult, error) {
	switch a.Kind {
	case "op":
		return runOp(ctx, sc, a.Op)
	case "tran":
		return runTran(sc, a.Tran)
	case "sweep":
		return runSweep(ctx, a.Sweep, opt)
	case "plan":
		return runPlan(ctx, a.Plan, opt)
	default:
		return nil, fmt.Errorf("deck: unknown analysis kind %q", a.Kind)
	}
}

// runOp solves the stack with each model sequentially through core.Solve,
// so ctx stops the models that support cancellation (the FVM reference).
func runOp(ctx context.Context, sc *Scenario, op *OpAnalysis) (*AnalysisResult, error) {
	ar := &AnalysisResult{Kind: "op"}
	for _, m := range op.Models {
		r, err := core.Solve(ctx, m, sc.Stack)
		if err != nil {
			return nil, fmt.Errorf("deck: .op model %s: %w", m.Name(), err)
		}
		ar.Op = append(ar.Op, r)
	}
	return ar, nil
}

func runTran(sc *Scenario, tr *TranAnalysis) (*AnalysisResult, error) {
	tm := tr.Model.(transientModel)
	r, err := tm.SolveTransient(sc.Stack, tr.Spec)
	if err != nil {
		return nil, fmt.Errorf("deck: .tran model %s: %w", tr.Model.Name(), err)
	}
	return &AnalysisResult{Kind: "tran", Tran: r}, nil
}

// runSweep fans the value×model grid through the batch engine. The engine
// guarantees bit-identical results for any worker count, so the deck layer
// inherits worker invariance for free; sharding, journaling and resumption
// ride on the engine's partition and checkpoint journal, whose points are
// solved independently, so they inherit the same identity guarantee.
func runSweep(ctx context.Context, sw *SweepAnalysis, opt Options) (*AnalysisResult, error) {
	workers := opt.Workers
	if sw.Workers > 0 {
		workers = sw.Workers
	}
	var jobs sweep.Batch
	for i := range sw.Values {
		for _, m := range sw.Models {
			jobs = jobs.Add(fmt.Sprintf("%s=%s/%s", sw.Param, g(sw.Values[i]), m.Name()), sw.Stacks[i], m)
		}
	}
	ctl := opt.Sweep

	if len(ctl.MergePaths) > 0 {
		outcomes, err := mergeJournalFiles(jobs, ctl.MergePaths)
		if err != nil {
			return nil, err
		}
		return sweepResult(sw, outcomes, 0, sweep.ShardSpec{})
	}

	sopt := sweep.Options{Workers: workers}
	if ctl.Progress != nil {
		total := len(jobs)
		sopt.Progress = func(i int, oc sweep.Outcome) {
			p := SweepProgress{
				Index:     i,
				Total:     total,
				Label:     oc.Job.Name(),
				Replayed:  oc.Replayed,
				RuntimeNS: oc.Runtime.Nanoseconds(),
			}
			if oc.Err != nil {
				p.Err = oc.Err.Error()
			} else if oc.Result != nil {
				p.MaxDT = oc.Result.MaxDT
			}
			ctl.Progress(p)
		}
	}
	var jf *os.File
	if ctl.JournalPath != "" {
		var err error
		if ctl.Resume {
			sopt.Resume, err = readResume(ctl.JournalPath, jobs, ctl.Shard)
			if err != nil {
				return nil, err
			}
			jf, err = os.OpenFile(ctl.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		} else {
			jf, err = os.Create(ctl.JournalPath)
		}
		if err != nil {
			return nil, fmt.Errorf("deck: .sweep journal: %w", err)
		}
		defer jf.Close()
		sopt.Journal, err = sweep.NewJournal(jf, jobs, ctl.Shard)
		if err != nil {
			return nil, fmt.Errorf("deck: .sweep journal: %w", err)
		}
	}

	outcomes, lo, err := sweep.RunShard(ctx, jobs, ctl.Shard, sopt)
	if err != nil {
		return nil, err
	}
	if sopt.Journal != nil {
		if jerr := sopt.Journal.Err(); jerr != nil {
			return nil, fmt.Errorf("deck: .sweep journal: %w", jerr)
		}
		if err := jf.Close(); err != nil {
			return nil, fmt.Errorf("deck: .sweep journal: %w", err)
		}
	}
	return sweepResult(sw, outcomes, lo, ctl.Shard)
}

// readResume replays the completed points of an existing journal file. A
// missing or empty file is a fresh start, not an error — "resume" is then
// just a journaled run. The journal's recorded shard must match the
// requested one: resuming shard 2/5 from shard 1/5's journal would replay
// the wrong points.
func readResume(path string, jobs []sweep.Job, spec sweep.ShardSpec) (map[int]sweep.Outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("deck: .sweep resume: %w", err)
	}
	if len(data) == 0 {
		return nil, nil
	}
	resume, got, err := sweep.ReadJournal(bytes.NewReader(data), jobs)
	if err != nil {
		return nil, fmt.Errorf("deck: .sweep resume %s: %w", path, err)
	}
	if got != spec {
		return nil, fmt.Errorf("deck: .sweep resume %s: journal is for shard %q, this run is shard %q", path, got.String(), spec.String())
	}
	return resume, nil
}

// mergeJournalFiles merges shard journal files into full-batch outcomes.
func mergeJournalFiles(jobs []sweep.Job, paths []string) ([]sweep.Outcome, error) {
	readers := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("deck: .sweep merge: %w", err)
		}
		readers = append(readers, bytes.NewReader(data))
	}
	outcomes, err := sweep.MergeJournals(jobs, readers...)
	if err != nil {
		return nil, fmt.Errorf("deck: .sweep merge: %w", err)
	}
	return outcomes, nil
}

// sweepResult renders outcomes covering batch indices [lo, lo+len(outcomes))
// into the analysis result. Only value rows whose jobs all fall inside the
// range are reported — a shard boundary can split a value's model row when
// the models-per-value count does not divide the shard's length — and a
// sharded result is marked so the report says what it covers. An unsharded
// result (zero spec, lo 0) reports every row, exactly as before.
func sweepResult(sw *SweepAnalysis, outcomes []sweep.Outcome, lo int, spec sweep.ShardSpec) (*AnalysisResult, error) {
	ar := &AnalysisResult{Kind: "sweep", SweepParam: sw.Param}
	for _, m := range sw.Models {
		ar.SweepModels = append(ar.SweepModels, m.Name())
	}
	nm := len(sw.Models)
	hi := lo + len(outcomes)
	for i := range sw.Values {
		if i*nm < lo || (i+1)*nm > hi {
			continue
		}
		row := make([]float64, nm)
		for j := 0; j < nm; j++ {
			o := &outcomes[i*nm+j-lo]
			if o.Err != nil {
				return nil, fmt.Errorf("deck: .sweep job %s: %w", o.Job.Name(), o.Err)
			}
			row[j] = o.Result.MaxDT
		}
		ar.SweepValues = append(ar.SweepValues, sw.Values[i])
		ar.SweepDT = append(ar.SweepDT, row)
	}
	if !spec.IsZero() {
		ar.SweepShard = spec.String()
		ar.SweepTotalValues = len(sw.Values)
	}
	return ar, nil
}

func runPlan(ctx context.Context, pa *PlanAnalysis, opt Options) (*AnalysisResult, error) {
	workers := opt.Workers
	if pa.Workers > 0 {
		workers = pa.Workers
	}
	r, err := plan.PlanWith(pa.Floor, pa.Tech, pa.Budget, pa.Model, plan.Options{Ctx: ctx, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("deck: .plan: %w", err)
	}
	return &AnalysisResult{Kind: "plan", Plan: r, PlanModel: pa.Model.Name(), PlanBudget: pa.Budget}, nil
}

// g renders a float64 with full round-trip precision; every number in the
// text report goes through it so goldens are bitwise-stable.
func g(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// maxTranRows bounds the transient trace in the text report; long traces are
// decimated deterministically, keeping first and last samples.
const maxTranRows = 25

// WriteText renders the result as a deterministic text report: no wall
// times, no solver statistics that vary run to run, every float at full
// precision. The same report is produced for any worker count, which is what
// the golden corpus and the CLI -deck paths compare against.
func (r *Result) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("title: %s\n", r.Title)
	for i := range r.Analyses {
		a := &r.Analyses[i]
		bw.printf("\n")
		switch a.Kind {
		case "op":
			bw.printf(".op\n")
			for _, res := range a.Op {
				bw.printf("  model %s: maxDT=%s K baseDT=%s K unknowns=%d\n",
					res.Model, g(res.MaxDT), g(res.BaseDT), res.Unknowns)
				if len(res.PlaneDT) > 0 {
					parts := make([]string, len(res.PlaneDT))
					for j, dt := range res.PlaneDT {
						parts[j] = g(dt)
					}
					bw.printf("    planeDT: %s\n", strings.Join(parts, " "))
				}
			}
		case "tran":
			t := a.Tran
			bw.printf(".tran model=%s steps=%d\n", t.Model, len(t.Times))
			step := 1
			if len(t.Times) > maxTranRows {
				step = (len(t.Times) + maxTranRows - 1) / maxTranRows
			}
			for j := 0; j < len(t.Times); j += step {
				bw.printf("  t=%s dT=%s\n", g(t.Times[j]), g(t.TopDT[j]))
			}
			if len(t.Times) > 0 && (len(t.Times)-1)%step != 0 {
				last := len(t.Times) - 1
				bw.printf("  t=%s dT=%s\n", g(t.Times[last]), g(t.TopDT[last]))
			}
			bw.printf("  final dT=%s K settled=%v settlingTime=%s s\n", g(t.FinalDT), t.Settled, g(t.SettlingTime))
		case "sweep":
			bw.printf(".sweep %s (%d points)\n", a.SweepParam, len(a.SweepValues))
			if a.SweepShard != "" {
				bw.printf("  shard: %s (%d of %d values)\n", a.SweepShard, len(a.SweepValues), a.SweepTotalValues)
			}
			bw.printf("  models: %s\n", strings.Join(a.SweepModels, " "))
			for j, v := range a.SweepValues {
				parts := make([]string, len(a.SweepDT[j]))
				for k, dt := range a.SweepDT[j] {
					parts[k] = g(dt)
				}
				bw.printf("  %s=%s dT: %s\n", a.SweepParam, g(v), strings.Join(parts, " "))
			}
		case "plan":
			p := a.Plan
			bw.printf(".plan model=%s budget=%s K\n", a.PlanModel, g(a.PlanBudget))
			bw.printf("  vias=%d maxDT=%s K viaArea=%s m2\n", p.TotalVias, g(p.MaxDT), g(p.ViaArea))
			bw.printf("  counts:\n")
			for _, row := range p.Counts {
				parts := make([]string, len(row))
				for k, n := range row {
					parts[k] = strconv.Itoa(n)
				}
				bw.printf("    %s\n", strings.Join(parts, " "))
			}
			bw.printf("  tileDT:\n")
			for _, row := range p.TileDT {
				parts := make([]string, len(row))
				for k, dt := range row {
					parts[k] = g(dt)
				}
				bw.printf("    %s\n", strings.Join(parts, " "))
			}
		}
	}
	return bw.err
}

// errWriter folds write errors so report code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
