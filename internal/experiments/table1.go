package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/units"
)

// Table1Row is one column of the paper's Table I transposed into a row:
// a model with its error statistics over the Fig. 5 sweep and its runtime.
type Table1Row struct {
	Model      string
	MaxErr     float64
	AvgErr     float64
	AvgRuntime time.Duration
}

// Table1Result reproduces Table I: accuracy and runtime of Model B versus
// segment count, with Model A and the 1-D model for context.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the Fig. 5 liner sweep for Model B at the paper's four
// segmentations — (1, 1), (2, 20), (10, 100), (50, 500) — plus Model A and
// the 1-D baseline, and reports max/avg error versus the reference solver
// and the average solve runtime (paper Table I).
func Table1(cfg Config) (*Table1Result, error) {
	liners := []float64{0.5, 1, 1.5, 2, 2.5, 3}
	segments := []int{1, 20, 100, 500}
	if cfg.Quick {
		liners = []float64{0.5, 1.5, 3}
		segments = []int{1, 20, 100}
	}
	ms := make([]namedModel, 0, len(segments)+2)
	for _, n := range segments {
		m := core.NewModelB(n)
		ms = append(ms, namedModel{m.Name(), m})
	}
	ms = append(ms,
		namedModel{"A", core.ModelA{Coeffs: core.PaperBlockCoeffs()}},
		namedModel{"1D", core.Model1D{}},
	)

	// The whole table — every (liner, model) pair plus the per-liner
	// reference solves — is one batch through the sweep engine.
	sw := &Sweep{ID: "table1", Models: modelNames(ms)}
	stacks := make([]*stack.Stack, 0, len(liners))
	for _, tl := range liners {
		s, err := stack.Fig5Block(units.UM(tl))
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s)
	}
	if err := runSweepPoints(cfg, sw, liners, stacks, withReference(ms, cfg.Resolution)); err != nil {
		return nil, err
	}
	out := &Table1Result{}
	stats := sw.ErrorStats()
	for _, nm := range ms {
		st := stats[nm.name]
		out.Rows = append(out.Rows, Table1Row{
			Model:      nm.name,
			MaxErr:     st.Max,
			AvgErr:     st.Avg,
			AvgRuntime: st.AvgRuntime,
		})
	}
	return out, nil
}

// Table renders the result in the paper's layout (models as columns become
// rows here for readability).
func (t *Table1Result) Table() *report.Table {
	tb := report.NewTable("Table I: error and runtime vs. number of segments in Model B",
		"model", "max error", "avg error", "avg runtime")
	for _, r := range t.Rows {
		tb.AddRow(r.Model,
			fmt.Sprintf("%.1f%%", 100*r.MaxErr),
			fmt.Sprintf("%.1f%%", 100*r.AvgErr),
			r.AvgRuntime.Round(time.Microsecond).String())
	}
	return tb
}
