package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/report"
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

// Table1 runs Fig. 5's liner sweep under its own id and reports each
// model's max/avg error versus the reference solver and its average solve
// runtime (paper Table I): Model B at the paper's four segmentations, then
// Model A and the 1-D baseline for context.
func Table1(cfg Config) (*Table1Result, error) {
	f := fig5
	f.id = "table1"
	sw, err := f.run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	stats := sw.ErrorStats()
	// Table I's rows are Model B's columns first, then the others of the
	// lineup in its order; the reference (last) has none.
	analytic := sw.Models[:len(sw.Models)-1]
	for _, modelB := range []bool{true, false} {
		for _, m := range analytic {
			if strings.HasPrefix(m, "B(") != modelB {
				continue
			}
			st := stats[m]
			out.Rows = append(out.Rows, Table1Row{
				Model:      m,
				MaxErr:     st.Max,
				AvgErr:     st.Avg,
				AvgRuntime: st.AvgRuntime,
			})
		}
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
