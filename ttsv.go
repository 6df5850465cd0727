// Package ttsv is the public API of the TTSV thermal-modeling library, a
// from-scratch Go reproduction of
//
//	Hu Xu, Vasilis F. Pavlidis, Giovanni De Micheli,
//	"Analytical Heat Transfer Model for Thermal Through-Silicon Vias",
//	Design, Automation & Test in Europe (DATE), 2011.
//
// Thermal through-silicon vias (TTSVs) are dummy vertical vias inserted in
// 3-D integrated circuits purely to conduct heat towards the heat sink. The
// library provides:
//
//   - Model A (ModelA): the paper's compact per-plane resistive network with
//     two fitted coefficients — accurate and closed-form fast.
//   - Model B (ModelB, NewModelB): the distributed π-segment model that
//     needs no fitting coefficients; accuracy scales with the segment count.
//   - The traditional 1-D baseline (Model1D) the paper argues against.
//   - The equal-metal-area cluster transform (Stack.WithViaCount): divide a
//     via into n thinner vias at constant metal area.
//   - A finite-volume reference solver (SolveReference) standing in for the
//     paper's FEM tool, used to validate and calibrate the models.
//   - Full-chip embedding (System, DRAMuP) reducing a chip with a uniform
//     TTSV array to a per-via unit cell — the paper's DRAM-µP case study.
//
// Quick start:
//
//	s, err := ttsv.Fig4Block(10e-6) // 3-plane block, 10 µm via
//	if err != nil { ... }
//	res, err := ttsv.ModelA{Coeffs: ttsv.PaperBlockCoeffs()}.Solve(s)
//	fmt.Println(res.MaxDT) // max temperature rise above the heat sink, K
//
// All quantities are SI (meters, watts, kelvins); temperatures are reported
// as rises above the heat-sink reference.
package ttsv

import (
	"context"
	"io"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/fem"
	"repro/internal/fit"
	"repro/internal/materials"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/sweep"
)

// Re-exported structural types. See the internal packages for full method
// documentation; the aliases make the internal types usable directly.
type (
	// Stack is an N-plane 3-D IC segment with a TTSV through it.
	Stack = stack.Stack
	// Plane is one device plane (silicon + ILD + bond below).
	Plane = stack.Plane
	// TTSV is the via geometry (radius, liner, extension, cluster count).
	TTSV = stack.TTSV
	// BlockConfig parameterizes the paper's standard experiment block.
	BlockConfig = stack.BlockConfig
	// Material is a named solid with a thermal conductivity.
	Material = materials.Material

	// Coeffs holds Model A's fitting coefficients (k1, k2, c1).
	Coeffs = core.Coeffs
	// Result is a solved temperature report (MaxDT, per-plane rises).
	Result = core.Result
	// Model is the common solver interface of all three models.
	Model = core.Model
	// ModelA is the paper's compact fitted network model (§II).
	ModelA = core.ModelA
	// ModelB is the distributed π-segment model (§III).
	ModelB = core.ModelB
	// Model1D is the traditional baseline the paper compares against.
	Model1D = core.Model1D
	// PlaneResistances are one plane's three network elements.
	PlaneResistances = core.PlaneResistances

	// System is a full chip with a uniformly distributed TTSV array.
	System = chip.System
	// Resolution selects the reference solver's mesh level (the zero value
	// is the base mesh; see Resolution.Refine) and preconditioner.
	Resolution = fem.Resolution
	// SolveContext carries one grid shape's reusable solver state
	// (assembly, factor or multigrid hierarchy, scratch) across repeated
	// reference solves; see NewSolveContext.
	SolveContext = fem.SolveContext
	// CalibrationPoint pairs a geometry with a reference temperature.
	CalibrationPoint = fit.CalibrationPoint

	// TransientSpec configures a step-power transient simulation.
	TransientSpec = core.TransientSpec
	// TransientResult is a model's time response to a power step.
	TransientResult = core.TransientResult

	// Technology holds the per-via/per-plane parameters of a TTSV
	// insertion-planning run.
	Technology = plan.Technology
	// Floorplan is a tiled power map for insertion planning.
	Floorplan = plan.Floorplan
	// PlanResult is a completed TTSV insertion plan.
	PlanResult = plan.Result
	// PowerMapSolution is a solved full-chip temperature field.
	PowerMapSolution = chip.PowerMapSolution

	// Batch is an ordered set of (stack, model) evaluation jobs for Sweep.
	Batch = sweep.Batch
	// SweepJob is one evaluation in a batch.
	SweepJob = sweep.Job
	// SweepOutcome is one job's result, error, and runtime.
	SweepOutcome = sweep.Outcome
	// SweepOptions controls worker count and memoization of a sweep.
	SweepOptions = sweep.Options
	// SweepCache memoizes solves keyed on geometry+model across sweeps;
	// every caller through one cache solves each point once.
	SweepCache = sweep.Cache
	// SweepShardSpec selects one contiguous slice of a sweep batch; see
	// ParseSweepShard and DeckSweepControl.Shard.
	SweepShardSpec = sweep.ShardSpec
	// SolverStats reports a reference linear solve (direct or CG: method,
	// iterations, residual); see Result.Solver and SolveReferenceStats.
	SolverStats = sparse.Stats
	// PrecondKind selects the reference solver's preconditioner; see
	// Resolution.Precond and the Precond* constants.
	PrecondKind = sparse.PrecondKind
	// PlanOptions controls cancellation and worker count of insertion
	// planning.
	PlanOptions = plan.Options

	// Deck is a parsed .ttsv scenario deck; see ParseDeck.
	Deck = deck.Deck
	// DeckScenario is a deck lowered onto the engines (stack + analyses).
	DeckScenario = deck.Scenario
	// DeckResult collects the outputs of a deck's analysis cards; its
	// WriteText renders the deterministic text report the CLIs print.
	DeckResult = deck.Result
	// DeckOptions controls a deck run's engine worker pools and sweep
	// sharding, journaling and merging.
	DeckOptions = deck.Options
	// DeckSweepControl shards, journals, resumes and merges a deck's .sweep
	// analysis (DeckOptions.Sweep); the zero value changes nothing.
	DeckSweepControl = deck.SweepControl
	// DeckSweepProgress is one completed sweep point as delivered to
	// DeckSweepControl.Progress and streamed by the service's /sweep.
	DeckSweepProgress = deck.SweepProgress
	// DeckError is a positioned deck parse/lowering error
	// ("file:line:col: message").
	DeckError = deck.Error

	// ServeConfig configures the embedded solve service; see NewServeHandler
	// and Serve.
	ServeConfig = serve.Config
	// ServeHandler is the solve service's http.Handler; see NewServeHandler.
	ServeHandler = serve.Server
	// SolveRequest is the service's POST /solve JSON body.
	SolveRequest = serve.SolveRequest
	// SweepRequest is the service's POST /sweep JSON body.
	SweepRequest = serve.SweepRequest
	// PlanRequest is the service's POST /plan JSON body.
	PlanRequest = serve.PlanRequest

	// Tracer records solver/sweep/plan spans as NDJSON; see NewTracer.
	Tracer = obs.Tracer
	// MetricsSnapshot is a frozen copy of the library's metrics registry;
	// see Metrics.
	MetricsSnapshot = obs.Snapshot
)

// Preconditioner choices for Resolution.Precond. PrecondAuto applies the
// grid rule: a banded LDLᵀ solve where unknowns × half-bandwidth² is
// under a fixed budget (the default and 2× meshes), multigrid-preconditioned
// CG above it. PrecondMG forces multigrid, which builds the hierarchy its
// grid calls for: full coarsening with line relaxation on the axisymmetric
// reference, z-semicoarsening with plane relaxation on 3-D grids.
const (
	PrecondAuto = sparse.PrecondDefault
	PrecondMG   = sparse.PrecondMG
)

// ParsePrecond converts a command-line spelling ("auto", "mg") into a
// PrecondKind.
func ParsePrecond(s string) (PrecondKind, error) { return sparse.ParsePrecond(s) }

// Stock materials (conductivities from the paper's §IV).
var (
	// Silicon is the substrate material (130 W/m·K).
	Silicon = materials.Silicon
	// SiO2 is the ILD and liner dielectric (1.4 W/m·K).
	SiO2 = materials.SiO2
	// Polyimide is the bonding adhesive (0.15 W/m·K).
	Polyimide = materials.Polyimide
	// Copper is the via fill (400 W/m·K).
	Copper = materials.Copper
)

// DefaultBlock returns the paper's §IV baseline block configuration.
func DefaultBlock() BlockConfig { return stack.DefaultBlock() }

// Fig4Block returns the Fig. 4 geometry for a via radius r (meters).
func Fig4Block(r float64) (*Stack, error) { return stack.Fig4Block(r) }

// Fig5Block returns the Fig. 5 geometry for a liner thickness tl (meters).
func Fig5Block(tl float64) (*Stack, error) { return stack.Fig5Block(tl) }

// Fig6Block returns the Fig. 6 geometry for an upper-plane substrate
// thickness tsi (meters).
func Fig6Block(tsi float64) (*Stack, error) { return stack.Fig6Block(tsi) }

// Fig7Block returns the Fig. 7 geometry with the via split into n parts.
func Fig7Block(n int) (*Stack, error) { return stack.Fig7Block(n) }

// NewModelB returns Model B with the paper's segment pairing for "B(n)".
func NewModelB(n int) ModelB { return core.NewModelB(n) }

// PaperBlockCoeffs returns k1 = 1.3, k2 = 0.55 (block experiments).
func PaperBlockCoeffs() Coeffs { return core.PaperBlockCoeffs() }

// PaperSystemCoeffs returns k1 = 1.6, k2 = 0.8, c1 = 3.5 (case study).
func PaperSystemCoeffs() Coeffs { return core.PaperSystemCoeffs() }

// UnitCoeffs returns k1 = k2 = 1 (no fitting).
func UnitCoeffs() Coeffs { return core.UnitCoeffs() }

// Resistances evaluates the paper's resistance formulas (eqs. (7)-(16)) for
// every plane plus the substrate resistance R_s.
func Resistances(s *Stack, c Coeffs) ([]PlaneResistances, float64, error) {
	return core.Resistances(s, c)
}

// DRAMuP returns the paper's §IV-E DRAM-on-µP case-study system.
func DRAMuP() System { return chip.DRAMuP() }

// DefaultResolution returns the reference solver's base mesh under the
// default solver rule: the zero Resolution.
func DefaultResolution() Resolution { return fem.DefaultResolution() }

// SolveReference runs the finite-volume reference solver (the COMSOL
// stand-in) on a stack and returns the maximum temperature rise above the
// heat sink.
func SolveReference(s *Stack, res Resolution) (float64, error) {
	max, _, err := SolveReferenceStats(s, res)
	return max, err
}

// SolveReferenceStats is SolveReference returning the linear solver's
// statistics (method, iteration count, residual, wall time) alongside the
// maximum temperature rise.
func SolveReferenceStats(s *Stack, res Resolution) (float64, SolverStats, error) {
	return SolveReferenceStatsCtx(context.Background(), s, res)
}

// SolveReferenceStatsCtx is SolveReferenceStats honoring cancellation: the
// solver checks ctx before factoring, before a direct solve's sweeps and
// between conjugate-gradient iterations. Its solver state comes from the
// process-wide idle contexts, as ReferenceModel's does.
func SolveReferenceStatsCtx(ctx context.Context, s *Stack, res Resolution) (float64, SolverStats, error) {
	return SolveReferenceStatsWith(ctx, nil, s, res)
}

// ReferenceModel wraps the finite-volume reference solver as a Model so it
// can join sweeps and planning runs next to the analytical models. The zero
// Resolution is DefaultResolution. The returned model supports sweep
// cancellation (core.ContextSolver), so cancelling a Sweep stops its
// in-flight reference solves. Its solves keep their assembly, factor or
// multigrid hierarchy and solver scratch in a small process-wide set of
// idle contexts, one per grid shape, so repeated solves of a shape skip
// that setup with bit-identical results.
func ReferenceModel(res Resolution) Model { return fem.ReferenceModel{Res: res} }

// NewSolveContext returns a reuse context that the caller owns for the
// repeated reference solves it drives itself. It holds one grid shape's
// assembly, banded LDLᵀ factor or multigrid hierarchy, and solver scratch.
// A context without them (a new or closed one, or one holding another
// shape, which it hands back first) takes the storage of an idle context of
// the shape from the process-wide list, but builds its own factor or
// hierarchy on its first solve. Close hands its state to that list and
// empties it. Reuse never changes results — a solve through a context is
// bit-identical to a cold one. A context serves one solve at a time (use
// one per goroutine).
func NewSolveContext() *SolveContext { return fem.NewSolveContext() }

// SolveReferenceStatsWith is SolveReferenceStatsCtx solving through a reuse
// context; pass the same sc across a parameter sweep's solves to skip
// re-deriving the assembly, factor and multigrid hierarchy each time. A nil
// sc means the process-wide idle list: the solve takes the idle state of
// its grid shape, factor or hierarchy included, and hands it back. It keeps
// no temperature field: the solution vector goes back to the context's
// scratch once its maximum is read.
func SolveReferenceStatsWith(ctx context.Context, sc *SolveContext, s *Stack, res Resolution) (float64, SolverStats, error) {
	return fem.SolveStackMaxWith(ctx, sc, s, res)
}

// Sweep evaluates all jobs across opt.Workers workers and returns one
// outcome per job in job order, regardless of worker scheduling. Per-job
// failures are captured in SweepOutcome.Err — one failing geometry does not
// abort the batch — and Sweep itself only returns an error when ctx is
// cancelled (models supporting cancellation, like ReferenceModel, then also
// abandon their in-flight solves). Results are bitwise identical for any
// worker count.
func Sweep(ctx context.Context, jobs Batch, opt SweepOptions) ([]SweepOutcome, error) {
	return sweep.Run(ctx, jobs, opt)
}

// NewSweepCache returns an empty memoization cache for SweepOptions.Cache
// (every insertion plan memoizes its solves in a cache of its own); it is
// safe for concurrent use and may be shared across batches. Every caller through it solves each point once: one
// asking for a point another is still solving joins that solve, waits on
// its own context and leaves alone when it ends; the solve stops only when
// no caller waits on it. A hit reports the Runtime and Solver stats of the
// solve that produced it, and a cancelled solve is never cached. The cache
// holds at most 65 536 points and evicts the least recently used beyond
// that.
func NewSweepCache() *SweepCache { return sweep.NewCache() }

// ParseSweepShard parses a 1-based "i/n" shard spec ("2/5" = the second of
// five shards); the empty string selects the whole batch. Shards partition a
// sweep into contiguous slices of nearly equal size, and every point solves
// on its own, so per-shard results — and merged reports — are bit-identical
// to a single-process run.
func ParseSweepShard(s string) (SweepShardSpec, error) { return sweep.ParseShardSpec(s) }

// NewTracer returns a span tracer writing NDJSON records (one JSON object
// per line) to w. Thread it through a context with TraceContext to record
// sweeps, insertion plans, deck runs and reference solves.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// TraceContext returns a context carrying t, so everything run on it emits
// spans into t: Sweep, RunDeck, PlanInsertionWith through PlanOptions.Ctx,
// and the context-threaded reference solves (SolveReferenceStatsCtx). A
// nil tracer returns ctx unchanged.
func TraceContext(ctx context.Context, t *Tracer) context.Context {
	return obs.ContextWithTracer(ctx, t)
}

// Metrics returns a point-in-time snapshot of the library's metrics
// registry: solver series (sparse.cg.*, mg.*, fem.*), batch-engine series
// (sweep.*, plan.*) and workload counters (chip.*, experiments.*). The
// snapshot is safe to read and serialize while solves continue.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// DisableMetrics turns metric recording off process-wide; every record site
// reduces to a nil check. EnableMetrics turns it back on (with a fresh
// registry).
func DisableMetrics() { obs.SetDefault(nil) }

// EnableMetrics (re)starts metric collection into a fresh registry.
func EnableMetrics() { obs.SetDefault(obs.NewRegistry()) }

// CalibrateModelA fits Model A's (k1, k2) to reference temperatures, the
// paper's calibration workflow. start supplies the fixed c1 and a fallback.
func CalibrateModelA(points []CalibrationPoint, start Coeffs) (Coeffs, float64, error) {
	return fit.CalibrateModelA(points, start)
}

// SolveNonlinear iterates a model to self-consistency when material
// conductivities depend on temperature (Material.TempCoeff). It returns the
// converged result and the number of solves performed.
func SolveNonlinear(m Model, s *Stack, maxIter int, tol float64) (*Result, int, error) {
	return core.SolveNonlinear(m, s, maxIter, tol)
}

// DefaultTechnology returns a TTSV insertion technology matching the
// paper's case-study stack.
func DefaultTechnology() Technology { return plan.DefaultTechnology() }

// PlanInsertion assigns the minimum TTSV count per floorplan tile keeping
// every tile's temperature rise at or below budget (K) under the given
// thermal model — the planning methodology the paper's conclusion argues
// needs lateral-aware models.
func PlanInsertion(f *Floorplan, tech Technology, budget float64, m Model) (*PlanResult, error) {
	return plan.Plan(f, tech, budget, m)
}

// PlanInsertionWith is PlanInsertion with explicit cancellation and
// concurrency control; the plan is identical for any worker count.
func PlanInsertionWith(f *Floorplan, tech Technology, budget float64, m Model, opt PlanOptions) (*PlanResult, error) {
	return plan.PlanWith(f, tech, budget, m, opt)
}

// ParseDeck parses a .ttsv scenario deck from r; name labels error
// positions (typically the file path). See package repro/internal/deck for
// the grammar: title line, '*' comments, '+' continuations, unit-suffixed
// values, element cards (block, plane, via, source, tile) and analysis
// cards (.op, .tran, .sweep, .plan).
func ParseDeck(name string, r io.Reader) (*Deck, error) { return deck.Parse(name, r) }

// ParseDeckFile parses the deck at path.
func ParseDeckFile(path string) (*Deck, error) { return deck.ParseFile(path) }

// RunDeck lowers the deck onto the engines and executes every analysis card
// in order. Results are bit-identical to the equivalent struct-built calls
// and to any DeckOptions.Workers setting.
func RunDeck(ctx context.Context, d *Deck, opt DeckOptions) (*DeckResult, error) {
	return deck.Run(ctx, d, opt)
}

// VerifyPlan runs the homogenized full-chip 3-D solve of a floorplan with a
// per-tile via allocation, resolving the tile-to-tile lateral coupling the
// planner's adiabatic-tile model ignores (§IV-E's model-embedding workflow
// scaled to non-uniform power maps). The solve stops when ctx is cancelled
// and records spans when ctx carries a tracer (TraceContext).
func VerifyPlan(ctx context.Context, f *Floorplan, tech Technology, counts [][]int) (*PowerMapSolution, error) {
	return chip.SolvePowerMap(ctx, f, tech, counts)
}

// NewServeHandler returns the solve service as an http.Handler: POST /solve,
// /sweep, /plan and /deck run the library's analyses and respond with the
// same deterministic text reports the CLIs print (byte-identical for equal
// inputs), with single-flight coalescing of identical in-flight requests,
// token-bucket admission control and /metrics, /healthz, /debug/pprof/ on
// the same mux.
func NewServeHandler(cfg ServeConfig) *ServeHandler { return serve.New(cfg) }

// Serve runs the solve service on addr until ctx is cancelled, then drains
// in-flight requests gracefully; the ttsvd command is a thin wrapper around
// it. A nil ready is allowed; otherwise it receives the bound address once
// the listener is up (useful with ":0").
func Serve(ctx context.Context, addr string, cfg ServeConfig, drain time.Duration, ready func(boundAddr string)) error {
	return serve.ListenAndServe(ctx, addr, cfg, drain, ready)
}
