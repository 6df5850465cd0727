package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// solvesDuring returns how many direct reference solves fn ran, the quick
// mesh's only kind: each either factors or, when an idle fem context
// already holds the factor of the same operator, reuses it.
func solvesDuring(t *testing.T, fn func()) int64 {
	t.Helper()
	factors, reused := obs.Default().Counter("fem.direct.factors"), obs.Default().Counter("fem.direct.reuse.hits")
	before := factors.Value() + reused.Value()
	fn()
	return factors.Value() + reused.Value() - before
}

// paperSteps are the calls of one `ttsvlab all` after Calibrate, each
// reduced to its table.
var paperSteps = []struct {
	name string
	run  func(Config) (*report.Table, error)
}{
	{"fig4", sweepTable(Fig4)},
	{"fig5", sweepTable(Fig5)},
	{"fig6", sweepTable(Fig6)},
	{"fig7", sweepTable(Fig7)},
	{"table1", func(c Config) (*report.Table, error) {
		r, err := Table1(c)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"headline", func(c Config) (*report.Table, error) {
		r, err := Headline(c)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
}

func sweepTable(fn func(Config) (*Sweep, error)) func(Config) (*report.Table, error) {
	return func(c Config) (*report.Table, error) {
		sw, err := fn(c)
		if err != nil {
			return nil, err
		}
		return sw.Table(), nil
	}
}

// TestMemoSharedAcrossRun runs Calibrate, Figs. 4–7, Table1 and Headline on
// one Quick() Config and checks that the memo changes no result, only how
// often the reference is solved.
func TestMemoSharedAcrossRun(t *testing.T) {
	cfg := Quick()
	var cal *CalibrationResult
	shared := make(map[string]*report.Table)
	run := func(steps string) {
		for _, st := range paperSteps {
			if !strings.Contains(steps, st.name) {
				continue
			}
			tb, err := st.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			shared[st.name] = tb
		}
	}
	first := solvesDuring(t, func() {
		var err error
		if cal, err = Calibrate(cfg); err != nil {
			t.Fatal(err)
		}
		cfg.CalibratedA = &cal.Coeffs
		run("fig4 fig5 fig6 fig7")
	})
	if again := solvesDuring(t, func() { run("table1 headline") }); again != 0 {
		t.Errorf("Table1 and Headline after Figs. 4-7 solved %d times, want 0", again)
	}
	// Quick() calibrates on Fig. 4 r = 5, 12 µm and Fig. 6 t = 20 µm; only
	// r = 12 µm is not also a quick figure point (4 + 3 + 3 + 3 of them).
	if want := 14; first != int64(want) || cfg.cache.Len() != want {
		t.Errorf("whole run solved %d times and memoized %d geometries, want %d distinct geometries", first, cfg.cache.Len(), want)
	}

	calFresh, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if *cal != *calFresh {
		t.Errorf("calibration %+v, fresh %+v", *cal, *calFresh)
	}
	for _, st := range paperSteps {
		c := Quick()
		c.CalibratedA = &calFresh.Coeffs
		want, err := st.run(c)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := shared[st.name]
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: shape %q × %d, fresh %q × %d", st.name, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
		}
		for i, row := range got.Rows {
			for j, col := range got.Columns {
				if !strings.Contains(col, "runtime") && row[j] != want.Rows[i][j] {
					t.Errorf("%s row %d %q: %q, fresh %q", st.name, i+1, col, row[j], want.Rows[i][j])
				}
			}
		}
	}
}

func TestMemoHitKeepsOriginalSolve(t *testing.T) {
	cfg := Quick()
	first, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var second *Sweep
	if n := solvesDuring(t, func() {
		if second, err = Fig5(cfg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("repeated Fig. 5 solved %d times", n)
	}
	ref := slices.Index(second.Models, RefName)
	for i, p := range second.Points {
		q := first.Points[i]
		if p.Runtime[ref] != q.Runtime[ref] || p.DT[ref] != q.DT[ref] {
			t.Errorf("x=%g: hit %v %g, original %v %g", p.X,
				p.Runtime[ref], p.DT[ref], q.Runtime[ref], q.DT[ref])
		}
		if p.Runtime[ref] <= 0 {
			t.Errorf("x=%g: hit lost the solve's runtime: %v", p.X, p.Runtime[ref])
		}
	}
}

// TestMemoSharedByConcurrentCopies runs Fig. 5 and Table I at once on
// copies of one Config: the 3 liners they share are solved once each, by
// whichever run asks first, however the two interleave.
func TestMemoSharedByConcurrentCopies(t *testing.T) {
	cfg := Quick()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	solves := solvesDuring(t, func() {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, errs[0] = Fig5(cfg)
		}()
		go func() {
			defer wg.Done()
			_, errs[1] = Table1(cfg)
		}()
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := cfg.cache.Len(); n != 3 {
		t.Errorf("memo holds %d geometries after Fig. 5 and Table I on the same 3 liners", n)
	}
	if solves != 3 {
		t.Errorf("Fig. 5 and Table I at once solved the reference %d times, want once per liner (3)", solves)
	}
}

func TestConfigLiteralHasNoMemo(t *testing.T) {
	q := Quick()
	cfg := Config{Resolution: q.Resolution, Quick: true}
	var points int
	n := solvesDuring(t, func() {
		for range 2 {
			sw, err := Fig7(cfg)
			if err != nil {
				t.Fatal(err)
			}
			points += len(sw.Points)
		}
	})
	if n != int64(points) {
		t.Errorf("two Fig. 7 runs of a Config literal solved %d times, want one per point (%d)", n, points)
	}
}

func TestCalibrateHonoursContext(t *testing.T) {
	cfg := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Calibrate(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Calibrate under a cancelled context: %v, want context.Canceled", err)
	}
}

func TestCalibrateTraced(t *testing.T) {
	var buf bytes.Buffer
	cfg := Quick()
	cfg.Ctx = obs.ContextWithTracer(context.Background(), obs.NewTracer(&buf))
	if _, err := Calibrate(cfg); err != nil {
		t.Fatal(err)
	}
	wantSolvesUnder(t, buf.String(), "experiments.calibrate")
}

func TestCaseStudyHonoursContext(t *testing.T) {
	cfg := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := CaseStudy(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("CaseStudy under a cancelled context: %v, want context.Canceled", err)
	}
}

func TestCaseStudyTraced(t *testing.T) {
	var buf bytes.Buffer
	cfg := Quick()
	cfg.Ctx = obs.ContextWithTracer(context.Background(), obs.NewTracer(&buf))
	if _, err := CaseStudy(cfg); err != nil {
		t.Fatal(err)
	}
	wantSolvesUnder(t, buf.String(), "experiments.casestudy")
}

// wantSolvesUnder checks that an NDJSON trace has a root span and at least
// one fem.solve span, and that every fem.solve span descends from the root.
func wantSolvesUnder(t *testing.T, trace, rootSpan string) {
	t.Helper()
	type span struct {
		Span   string `json:"span"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
	}
	byID := make(map[int64]span)
	var root int64
	var solves []span
	for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		byID[s.ID] = s
		switch s.Span {
		case rootSpan:
			root = s.ID
		case "fem.solve":
			solves = append(solves, s)
		}
	}
	if root == 0 || len(solves) == 0 {
		t.Fatalf("trace has no %s span (%d) or no fem.solve spans (%d):\n%s", rootSpan, root, len(solves), trace)
	}
	for _, s := range solves {
		p := s
		for p.Parent != 0 && p.ID != root {
			p = byID[p.Parent]
		}
		if p.ID != root {
			t.Errorf("fem.solve span %d is not below %s", s.ID, rootSpan)
		}
	}
}
