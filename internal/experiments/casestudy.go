package experiments

import (
	"fmt"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/units"
)

// CaseStudyEntry is one method's result on the DRAM-µP system.
type CaseStudyEntry struct {
	Method  string
	MaxDT   float64
	Runtime time.Duration
	// RelErr is the deviation from the reference entry.
	RelErr float64
}

// CaseStudyResult reproduces §IV-E: the 3-D DRAM-µP system analyzed with
// Model A (system coefficients), Model B (1000 segments), the 1-D model and
// the reference solver. The paper reports 12.8 °C, 13.9 °C, 20 °C and 12 °C
// respectively.
type CaseStudyResult struct {
	System  chip.System
	Entries []CaseStudyEntry
}

// CaseStudy runs the paper's §IV-E analysis. The reference solve of the
// system's unit cell runs like every other experiment's: on cfg.Ctx (under
// an "experiments.casestudy" span when it carries a tracer) and through the
// run's reference cache.
func CaseStudy(cfg Config) (*CaseStudyResult, error) {
	sys := chip.DRAMuP()
	segments := 1000
	if cfg.Quick {
		segments = 200
	}
	out := &CaseStudyResult{System: sys}

	cell, err := sys.UnitCell()
	if err != nil {
		return nil, err
	}
	// The reference is the sweep's only column.
	sw, err := evaluate(cfg, "casestudy", []float64{0}, []*stack.Stack{cell}, nil)
	if err != nil {
		return nil, err
	}
	ref := sw.Points[0].DT[0]
	refEntry := CaseStudyEntry{Method: RefName, MaxDT: ref, Runtime: sw.Points[0].Runtime[0]}

	models := []namedModel{
		{"A", core.ModelA{Coeffs: core.PaperSystemCoeffs()}},
		{fmt.Sprintf("B(%d)", segments), core.NewModelB(segments)},
		{"1D", core.Model1D{}},
	}
	for _, nm := range models {
		t0 := time.Now()
		r, err := sys.Analyze(nm.model)
		if err != nil {
			return nil, fmt.Errorf("experiments: case study %s: %w", nm.name, err)
		}
		out.Entries = append(out.Entries, CaseStudyEntry{
			Method:  nm.name,
			MaxDT:   r.MaxDT,
			Runtime: time.Since(t0),
			RelErr:  units.RelErr(r.MaxDT, ref),
		})
	}
	out.Entries = append(out.Entries, refEntry)
	return out, nil
}

// Table renders the case study results.
func (c *CaseStudyResult) Table() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("§IV-E: 3-D DRAM-µP case study (%d TTSVs, %.1f%% density)",
			c.System.ViaCount(), 100*c.System.ViaDensity),
		"method", "max ΔT [°C]", "vs ref", "runtime")
	for _, e := range c.Entries {
		vs := "-"
		if e.Method != RefName {
			vs = fmt.Sprintf("%+.1f%%", 100*e.RelErr)
		}
		tb.AddRow(e.Method, fmt.Sprintf("%.2f", e.MaxDT), vs, e.Runtime.Round(time.Microsecond).String())
	}
	return tb
}
