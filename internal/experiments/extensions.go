package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/units"
)

// PlaneScaling sweeps the plane count of the standard block from 2 to 8
// (paper §II notes Model A "can be extended to any number of planes"; this
// experiment exercises the extension and validates it against the
// reference). Every plane added stacks another heat source on the same
// sink, so ΔT grows superlinearly.
func PlaneScaling(cfg Config) (*Sweep, error) { return planes.run(cfg) }

var planes = figure{
	id: "planes", title: "Extension: max ΔT vs number of planes (Fig. 4 block, r = 10 µm)", xLabel: "planes",
	xs:      []float64{2, 3, 4, 5, 6, 8},
	quickXs: []float64{2, 4, 6},
	block: func(n float64) (*stack.Stack, error) {
		c := stack.DefaultBlock()
		c.NumPlanes = int(n)
		c.R = units.UM(10)
		return c.Build()
	},
	lineup: standardModels,
}

// TransientEntry is one radius's step-response summary.
type TransientEntry struct {
	RadiusUM     float64
	FinalDT      float64
	SettlingTime float64
	Settled      bool
	Runtime      time.Duration
}

// TransientResult sweeps the via radius and reports each design's power-step
// settling behavior (extension beyond the paper's steady-state scope).
type TransientResult struct {
	Entries []TransientEntry
}

// Transient runs Model B step responses across the Fig. 4 radius range.
func Transient(cfg Config) (*TransientResult, error) {
	radii := []float64{2, 5, 10, 20}
	if cfg.Quick {
		radii = []float64{5, 20}
	}
	segments := 60
	if cfg.Quick {
		segments = 20
	}
	spec := core.TransientSpec{Dt: 100e-6, Steps: 400}
	m := core.NewModelB(segments)
	out := &TransientResult{}
	for _, r := range radii {
		s, err := stack.Fig4Block(units.UM(r))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tr, err := m.SolveTransient(s, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: transient at r=%g: %w", r, err)
		}
		out.Entries = append(out.Entries, TransientEntry{
			RadiusUM:     r,
			FinalDT:      tr.FinalDT,
			SettlingTime: tr.SettlingTime,
			Settled:      tr.Settled,
			Runtime:      time.Since(t0),
		})
	}
	return out, nil
}

// Table renders the transient sweep.
func (t *TransientResult) Table() *report.Table {
	tb := report.NewTable("Extension: power-step response vs via radius (Model B)",
		"r [µm]", "final ΔT [K]", "5% settling [ms]", "runtime")
	for _, e := range t.Entries {
		settle := "beyond horizon"
		if e.Settled {
			settle = fmt.Sprintf("%.2f", e.SettlingTime*1e3)
		}
		tb.AddRow(
			fmt.Sprintf("%.0f", e.RadiusUM),
			fmt.Sprintf("%.2f", e.FinalDT),
			settle,
			e.Runtime.Round(time.Millisecond).String())
	}
	return tb
}
