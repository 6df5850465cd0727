package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

// All experiment tests run the Quick configuration: thinner sweeps, coarser
// reference mesh — the assertions are about shape, not absolute values.

func TestFig4Shape(t *testing.T) {
	sw, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != "fig4" || len(sw.Points) < 3 {
		t.Fatalf("sweep = %+v", sw)
	}
	// ΔT decreases with radius for every method, including the reference.
	for _, m := range sw.Models {
		first := sw.Points[0].DT[m]
		last := sw.Points[len(sw.Points)-1].DT[m]
		if last >= first {
			t.Errorf("%s: ΔT did not fall from r=%g (%g) to r=%g (%g)",
				m, sw.Points[0].X, first, sw.Points[len(sw.Points)-1].X, last)
		}
	}
	// Models A and B track the reference far better than the 1-D model at
	// the high-aspect-ratio end (r = 1 µm), the paper's Fig. 4 observation.
	p0 := sw.Points[0]
	ref := p0.DT[RefName]
	if e1d, eb := units.RelErr(p0.DT["1D"], ref), units.RelErr(p0.DT["B(100)"], ref); e1d <= eb {
		t.Errorf("at r=1µm the 1-D error (%.1f%%) should exceed Model B's (%.1f%%)", 100*e1d, 100*eb)
	}
}

func TestFig5Shape(t *testing.T) {
	sw, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The reference and Models A/B increase with liner thickness; the 1-D
	// model stays flat (relative change under 2%).
	for _, m := range sw.Models {
		first := sw.Points[0].DT[m]
		last := sw.Points[len(sw.Points)-1].DT[m]
		if m == "1D" {
			if units.RelErr(first, last) > 0.02 {
				t.Errorf("1-D model not flat vs liner: %g -> %g", first, last)
			}
			continue
		}
		if last <= first {
			t.Errorf("%s: ΔT did not rise with liner thickness (%g -> %g)", m, first, last)
		}
	}
	// Model B's accuracy improves with segments at the thickest liner.
	pLast := sw.Points[len(sw.Points)-1]
	ref := pLast.DT[RefName]
	e1 := units.RelErr(pLast.DT["B(1)"], ref)
	e100 := units.RelErr(pLast.DT["B(100)"], ref)
	if e100 >= e1 {
		t.Errorf("B(100) error %.1f%% not below B(1) error %.1f%%", 100*e100, 100*e1)
	}
}

func TestFig6Shape(t *testing.T) {
	sw, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick() samples t_Si = 5, 20, 80: the reference, A and B must all dip
	// at 20 µm; the 1-D model must rise monotonically.
	get := func(m string) (a, b, c float64) {
		return sw.Points[0].DT[m], sw.Points[1].DT[m], sw.Points[2].DT[m]
	}
	for _, m := range []string{"A", "B(100)", RefName} {
		lo, mid, hi := get(m)
		if !(lo > mid && hi > mid) {
			t.Errorf("%s misses the non-monotonic dip: %g, %g, %g", m, lo, mid, hi)
		}
	}
	lo, mid, hi := get("1D")
	if !(lo < mid && mid < hi) {
		t.Errorf("1-D not monotone: %g, %g, %g", lo, mid, hi)
	}
}

func TestFig7Shape(t *testing.T) {
	sw, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sw.Models {
		first := sw.Points[0].DT[m]
		last := sw.Points[len(sw.Points)-1].DT[m]
		if m == "1D" {
			if units.RelErr(first, last) > 1e-9 {
				t.Errorf("1-D model sensitive to cluster count: %g vs %g", first, last)
			}
			continue
		}
		if last >= first {
			t.Errorf("%s: ΔT did not fall with cluster count (%g -> %g)", m, first, last)
		}
	}
}

// table1Row returns the row of res for the named model.
func table1Row(res *Table1Result, model string) (Table1Row, bool) {
	for _, r := range res.Rows {
		if r.Model == model {
			return r, true
		}
	}
	return Table1Row{}, false
}

func TestTable1Ordering(t *testing.T) {
	res, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	b1, ok1 := table1Row(res, "B(1)")
	b20, ok20 := table1Row(res, "B(20)")
	b100, ok100 := table1Row(res, "B(100)")
	oneD, okD := table1Row(res, "1D")
	if !ok1 || !ok20 || !ok100 || !okD {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	// Table I's two claims: accuracy improves with segments, runtime grows.
	if !(b1.AvgErr > b20.AvgErr && b20.AvgErr > b100.AvgErr) {
		t.Errorf("error not decreasing with segments: %.3f, %.3f, %.3f", b1.AvgErr, b20.AvgErr, b100.AvgErr)
	}
	for _, r := range res.Rows {
		if r.AvgRuntime <= 0 {
			t.Errorf("%s: no runtime", r.Model)
		}
	}
	// The table's runtimes are means over a few concurrent solves, so one
	// GC pause or preemption can reorder them. Runtime growing with
	// segments is checked on the fastest of several sequential solves of
	// each model on the thickest liner instead.
	s, err := stack.Fig5Block(units.UM(3))
	if err != nil {
		t.Fatal(err)
	}
	fastest := func(m core.Model) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, err := m.Solve(s); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	if rt1, rt100 := fastest(core.NewModelB(1)), fastest(core.NewModelB(100)); rt100 <= rt1 {
		t.Errorf("runtime not increasing with segments: B(1) %v vs B(100) %v", rt1, rt100)
	}
	// The 1-D model is the least accurate method in the lineup.
	if oneD.AvgErr <= b100.AvgErr {
		t.Errorf("1-D avg error %.3f not above B(100)'s %.3f", oneD.AvgErr, b100.AvgErr)
	}
	if _, ok := table1Row(res, "nope"); ok {
		t.Error("unknown row found")
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "B(20)") {
		t.Errorf("table missing B(20):\n%s", buf.String())
	}
}

// entry returns the named method's entry.
func (c *CaseStudyResult) entry(method string) (CaseStudyEntry, bool) {
	for _, e := range c.Entries {
		if e.Method == method {
			return e, true
		}
	}
	return CaseStudyEntry{}, false
}

func TestCaseStudyShape(t *testing.T) {
	res, err := CaseStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := res.entry(RefName)
	if !ok {
		t.Fatal("no reference entry")
	}
	b, okB := res.entry("B(200)")
	a, okA := res.entry("A")
	d, okD := res.entry("1D")
	if !okA || !okB || !okD {
		t.Fatalf("entries = %+v", res.Entries)
	}
	if e := units.RelErr(b.MaxDT, ref.MaxDT); e > 0.10 {
		t.Errorf("Model B off by %.0f%%", 100*e)
	}
	if e := units.RelErr(a.MaxDT, ref.MaxDT); e > 0.20 {
		t.Errorf("Model A off by %.0f%%", 100*e)
	}
	if d.MaxDT < 1.4*ref.MaxDT {
		t.Errorf("1-D %g does not overestimate reference %g substantially", d.MaxDT, ref.MaxDT)
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DRAM-µP") {
		t.Errorf("table:\n%s", buf.String())
	}
}

func TestHeadlineAggregates(t *testing.T) {
	res, err := Headline(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSweep) != 4 {
		t.Fatalf("PerSweep has %d sweeps", len(res.PerSweep))
	}
	// The paper's headline ordering: B beats the 1-D model on average, and
	// both analytical models stay within a modest band of the reference.
	if res.Overall["B(100)"] >= res.Overall["1D"] {
		t.Errorf("overall: B %.3f not below 1D %.3f", res.Overall["B(100)"], res.Overall["1D"])
	}
	if res.Overall["B(100)"] > 0.10 {
		t.Errorf("overall B error %.1f%% exceeds 10%%", 100*res.Overall["B(100)"])
	}
	if res.Overall["A"] > 0.25 {
		t.Errorf("overall A error %.1f%% exceeds 25%%", 100*res.Overall["A"])
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ALL") {
		t.Errorf("table:\n%s", buf.String())
	}
}

func TestCalibrateImprovesModelA(t *testing.T) {
	cfg := Quick()
	cal, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cal.RMS > 0.05 {
		t.Errorf("calibration residual %.1f%%", 100*cal.RMS)
	}
	if cal.Coeffs.K1 <= 0 || cal.Coeffs.K2 <= 0 {
		t.Errorf("coeffs = %+v", cal.Coeffs)
	}
	if cal.Points < 2 {
		t.Errorf("points = %d", cal.Points)
	}
}

func TestSweepTableAndPlot(t *testing.T) {
	sw, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 7", "n", "A", "B(100)", "1D", RefName} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := sw.Plot().Render(&buf, 60, 16); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "max ΔT") && !strings.Contains(buf.String(), "Fig. 7") {
		t.Errorf("plot:\n%s", buf.String())
	}
}

func TestErrorStatsRuntimes(t *testing.T) {
	sw, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	stats := sw.ErrorStats()
	if stats["A"].AvgRuntime <= 0 || stats[RefName].AvgRuntime <= 0 {
		t.Error("runtimes missing")
	}
	// The analytical models must be orders of magnitude faster than the
	// reference (the paper's efficiency claim). The sweep's runtimes come
	// from concurrent solves, which CPU contention from other test packages
	// slows unevenly, so compare the fastest of several sequential solves of
	// each model on each of the sweep's blocks instead; every reference
	// solve runs cold, on a new context.
	cfg := Quick()
	fastest := func(solve func() error) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if err := solve(); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	for _, p := range sw.Points {
		s, err := stack.Fig7Block(int(p.X))
		if err != nil {
			t.Fatal(err)
		}
		a := fastest(func() error {
			_, err := core.ModelA{Coeffs: core.PaperBlockCoeffs()}.Solve(s)
			return err
		})
		ref := fastest(func() error {
			sc := fem.NewSolveContext()
			defer sc.Close()
			_, err := fem.SolveStackWith(context.Background(), sc, s, cfg.Resolution)
			return err
		})
		if a > ref/10 {
			t.Errorf("n=%g: Model A fastest runtime %v not well below reference %v", p.X, a, ref)
		}
	}
	if stats[RefName].Max != 0 || stats[RefName].Avg != 0 {
		t.Error("reference has nonzero self-error")
	}
}

func TestPlaneScalingGrowsSuperlinearly(t *testing.T) {
	sw, err := PlaneScaling(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != "planes" || len(sw.Points) < 3 {
		t.Fatalf("sweep = %+v", sw)
	}
	for _, m := range sw.Models {
		dts := make([]float64, len(sw.Points))
		for i, p := range sw.Points {
			dts[i] = p.DT[m]
		}
		// Monotone growth with plane count.
		for i := 1; i < len(dts); i++ {
			if dts[i] <= dts[i-1] {
				t.Fatalf("%s: ΔT not growing with planes: %v", m, dts)
			}
		}
		// Superlinear: the last step (4->6 planes) adds more per plane than
		// the first (2->4) since every new plane's heat crosses all below.
		perPlaneFirst := (dts[1] - dts[0]) / (sw.Points[1].X - sw.Points[0].X)
		perPlaneLast := (dts[2] - dts[1]) / (sw.Points[2].X - sw.Points[1].X)
		if perPlaneLast <= perPlaneFirst {
			t.Errorf("%s: growth not superlinear: %g then %g per plane", m, perPlaneFirst, perPlaneLast)
		}
	}
	// Model B tracks the reference within 10% even at 6 planes.
	last := sw.Points[len(sw.Points)-1]
	if e := units.RelErr(last.DT["B(100)"], last.DT[RefName]); e > 0.10 {
		t.Errorf("B(100) at 6 planes off by %.0f%%", 100*e)
	}
}

func TestTransientExperiment(t *testing.T) {
	res, err := Transient(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) < 2 {
		t.Fatalf("entries = %+v", res.Entries)
	}
	for _, e := range res.Entries {
		if !e.Settled {
			t.Errorf("r=%g: did not settle", e.RadiusUM)
		}
		if e.FinalDT <= 0 || e.SettlingTime <= 0 {
			t.Errorf("r=%g: implausible entry %+v", e.RadiusUM, e)
		}
	}
	// Bigger via ends cooler.
	if res.Entries[0].FinalDT <= res.Entries[len(res.Entries)-1].FinalDT {
		t.Error("final ΔT not decreasing with radius")
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "settling") {
		t.Errorf("table:\n%s", buf.String())
	}
}
