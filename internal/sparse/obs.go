package sparse

import "repro/internal/obs"

// Metric names recorded by SolveCGCtx. Kept as constants so tests and the
// README stay in sync with the code.
const (
	metricSolves      = "sparse.cg.solves"
	metricFailures    = "sparse.cg.failures"
	metricIterations  = "sparse.cg.iterations"
	metricResidual    = "sparse.cg.residual"
	metricWallSeconds = "sparse.cg.wall_seconds"
)

// The bucket bounds of the solve histograms and the names of the
// per-preconditioner counters, made once rather than at every solve.
var (
	iterationBounds = obs.ExpBuckets(1, 2, 14)
	residualBounds  = obs.ExpBuckets(1e-16, 10, 15)
	wallBounds      = obs.ExpBuckets(1e-6, 4, 13)
	precondCounters = [...]string{
		PrecondDefault: "sparse.cg.precond." + PrecondDefault.String(),
		PrecondMG:      "sparse.cg.precond." + PrecondMG.String(),
	}
)

// precondCounter names the counter of solves preconditioned by p.
func precondCounter(p PrecondKind) string {
	if p >= 0 && int(p) < len(precondCounters) {
		return precondCounters[p]
	}
	return "sparse.cg.precond." + p.String()
}

// recordSolve feeds one finished CG solve into the obs default registry.
// With the registry disabled (obs.SetDefault(nil)) this is a single pointer
// load and a return.
func recordSolve(st Stats, err error) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter(metricSolves).Inc()
	r.Counter(precondCounter(st.Precond)).Inc()
	if err != nil {
		r.Counter(metricFailures).Inc()
	}
	r.Histogram(metricIterations, iterationBounds).Observe(float64(st.Iterations))
	r.Histogram(metricResidual, residualBounds).Observe(st.Residual)
	r.Histogram(metricWallSeconds, wallBounds).Observe(st.Wall.Seconds())
}
