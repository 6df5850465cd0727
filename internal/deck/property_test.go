package deck

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/materials"
	"repro/internal/plan"
	"repro/internal/stack"
	"repro/internal/units"
)

// stripWall zeroes what varies from run to run in a solve's stats — the
// wall times (solve and factor) and whether the factor was reused from an
// idle context of an earlier solve in the process — so results compare by
// value.
func stripWall(r *Result) {
	for i := range r.Analyses {
		for _, op := range r.Analyses[i].Op {
			stripStats(op)
		}
	}
}

func stripStats(r *core.Result) {
	r.Solver.Wall, r.Solver.Factor, r.Solver.Reused = 0, 0, false
}

// runCorpusDeck lowers and runs one corpus deck, returning the scenario too
// so tests can inspect the lowered stack.
func runCorpusDeck(t *testing.T, base string, workers int) (*Scenario, *Result) {
	t.Helper()
	d, err := ParseFile(filepath.Join(corpusDir, base+".ttsv"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := d.Lower()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(context.Background(), sc, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	stripWall(res)
	return sc, res
}

// TestDeckWorkerInvariance runs every corpus deck across worker counts 1, 2,
// 4 and 8 and requires bit-identical results: the deck layer must inherit
// the engines' worker invariance.
func TestDeckWorkerInvariance(t *testing.T) {
	for _, path := range corpusDecks(t) {
		base := strings.TrimSuffix(filepath.Base(path), ".ttsv")
		t.Run(base, func(t *testing.T) {
			t.Parallel()
			_, ref := runCorpusDeck(t, base, 1)
			for _, workers := range []int{2, 4, 8} {
				_, got := runCorpusDeck(t, base, workers)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("workers=%d result differs from workers=1", workers)
				}
			}
		})
	}
}

// mustBuild unwraps the struct-built paper configurations.
func mustBuild(t *testing.T, build func() (*stack.Stack, error)) *stack.Stack {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fig4 is stack.Fig4Block as a test thunk.
func fig4(r float64) func() (*stack.Stack, error) {
	return func() (*stack.Stack, error) { return stack.Fig4Block(r) }
}

// solveExact solves s with m and strips the run-varying stats.
func solveExact(t *testing.T, m core.Model, s *stack.Stack) *core.Result {
	t.Helper()
	r, err := m.Solve(s)
	if err != nil {
		t.Fatalf("model %s: %v", m.Name(), err)
	}
	stripStats(r)
	return r
}

// checkOp compares a deck .op analysis against direct struct-built solves,
// field for field (bitwise on every float).
func checkOp(t *testing.T, ar *AnalysisResult, s *stack.Stack, models []core.Model) {
	t.Helper()
	if ar.Kind != "op" || len(ar.Op) != len(models) {
		t.Fatalf("analysis = %+v, want op with %d models", ar.Kind, len(models))
	}
	for i, m := range models {
		want := solveExact(t, m, s)
		if !reflect.DeepEqual(ar.Op[i], want) {
			t.Errorf("model %s: deck result %+v != struct-built %+v", m.Name(), ar.Op[i], want)
		}
	}
}

// paperOpModels is the model set ".op model=all" selects with default
// coefficients.
func paperOpModels(segments int) []core.Model {
	return []core.Model{
		core.ModelA{Coeffs: core.Coeffs{K1: 1.3, K2: 0.55, C1: 1}},
		core.NewModelB(segments),
		core.Model1D{},
	}
}

func TestDeckOpFig4Baseline(t *testing.T) {
	sc, res := runCorpusDeck(t, "op_fig4_baseline", 1)
	want := mustBuild(t, fig4(units.UM(10)))
	if !reflect.DeepEqual(sc.Stack, want) {
		t.Fatalf("lowered stack differs from stack.Fig4Block(10um):\ndeck:  %+v\nbuilt: %+v", sc.Stack, want)
	}
	checkOp(t, &res.Analyses[0], want, paperOpModels(100))
}

func TestDeckOpReference(t *testing.T) {
	sc, res := runCorpusDeck(t, "op_reference", 1)
	want := mustBuild(t, fig4(units.UM(10)))
	if !reflect.DeepEqual(sc.Stack, want) {
		t.Fatalf("lowered stack differs from stack.Fig4Block(10um)")
	}
	checkOp(t, &res.Analyses[0], want, []core.Model{fem.ReferenceModel{Res: fem.DefaultResolution()}})
}

func TestDeckOpCustomMaterials(t *testing.T) {
	sc, res := runCorpusDeck(t, "op_custom_materials", 1)
	mw := 1e-3
	tungsten, err := materials.Lookup("W")
	if err != nil {
		t.Fatal(err)
	}
	bcb, err := materials.Lookup("BCB")
	if err != nil {
		t.Fatal(err)
	}
	upper := func(dev, ild float64) stack.Plane {
		return stack.Plane{
			SiThickness: units.UM(30), ILDThickness: units.UM(5), BondThickness: units.UM(2),
			Si: materials.Silicon, ILD: materials.SiO2, Bond: bcb,
			DevicePower: dev * mw, ILDPower: ild * mw, DeviceLayerThickness: units.UM(1),
		}
	}
	want := &stack.Stack{
		Footprint: units.UM(100) * units.UM(100),
		Planes: []stack.Plane{
			{
				SiThickness: units.UM(400), ILDThickness: units.UM(5),
				Si: materials.Silicon, ILD: materials.SiO2, Bond: materials.Polyimide,
				DevicePower: 10 * mw, ILDPower: 1 * mw, DeviceLayerThickness: units.UM(1),
			},
			upper(8, 0.8), upper(6, 0.6), upper(4, 0.4),
		},
		Via: stack.TTSV{
			Radius: units.UM(8), LinerThickness: units.UM(1), Extension: units.UM(2),
			Fill: tungsten, Liner: materials.SiO2, Count: 4,
		},
		SinkTemp: 35,
	}
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Stack, want) {
		t.Fatalf("lowered stack differs from hand-built stack:\ndeck:  %+v\nbuilt: %+v", sc.Stack, want)
	}
	checkOp(t, &res.Analyses[0], want, paperOpModels(60))
}

// checkSweep compares a deck .sweep analysis against direct solves of
// struct-built stacks, bitwise.
func checkSweep(t *testing.T, ar *AnalysisResult, stacks []*stack.Stack, values []float64, models []core.Model) {
	t.Helper()
	if ar.Kind != "sweep" {
		t.Fatalf("analysis kind = %q", ar.Kind)
	}
	if !reflect.DeepEqual(ar.SweepValues, values) {
		t.Fatalf("sweep values %v != struct-built %v", ar.SweepValues, values)
	}
	for i, s := range stacks {
		for j, m := range models {
			want := solveExact(t, m, s).MaxDT
			if ar.SweepDT[i][j] != want {
				t.Errorf("point %d model %s: deck %v != struct-built %v", i, m.Name(), ar.SweepDT[i][j], want)
			}
		}
	}
}

func TestDeckSweepLiner(t *testing.T) {
	_, res := runCorpusDeck(t, "sweep_liner", 1)
	var values []float64
	var stacks []*stack.Stack
	for _, tl := range []float64{0.5, 1, 1.5, 2, 2.5, 3} {
		values = append(values, units.UM(tl))
		stacks = append(stacks, mustBuild(t, func() (*stack.Stack, error) { return stack.Fig5Block(units.UM(tl)) }))
	}
	checkSweep(t, &res.Analyses[0], stacks, values, paperOpModels(100))
}

func TestDeckSweepCluster(t *testing.T) {
	_, res := runCorpusDeck(t, "sweep_cluster", 1)
	var values []float64
	var stacks []*stack.Stack
	for _, n := range []int{1, 2, 4, 8, 16} {
		values = append(values, float64(n))
		stacks = append(stacks, mustBuild(t, func() (*stack.Stack, error) { return stack.Fig7Block(n) }))
	}
	model := core.ModelA{Coeffs: core.Coeffs{K1: 1.3, K2: 0.55, C1: 1}}
	checkSweep(t, &res.Analyses[0], stacks, values, []core.Model{model})
}

func TestDeckSweepRadius(t *testing.T) {
	_, res := runCorpusDeck(t, "sweep_radius", 1)
	base := mustBuild(t, fig4(units.UM(10)))
	values := units.Linspace(units.UM(6), units.UM(10), 5)
	var stacks []*stack.Stack
	for _, r := range values {
		s := base.Clone()
		s.Via.Radius = r
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, s)
	}
	checkSweep(t, &res.Analyses[0], stacks, values, []core.Model{core.NewModelB(100)})
}

func TestDeckTranDVFS(t *testing.T) {
	sc, res := runCorpusDeck(t, "tran_dvfs", 1)
	want := mustBuild(t, fig4(units.UM(10)))
	if !reflect.DeepEqual(sc.Stack, want) {
		t.Fatalf("lowered stack differs from stack.Fig4Block(10um)")
	}
	us := 1e-6
	spec := core.TransientSpec{Dt: 100 * us, Steps: 200}
	exp, err := core.NewModelB(20).SolveTransient(want, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Analyses[0].Tran, exp) {
		t.Errorf("deck transient differs from struct-built run")
	}
}

func TestDeckPlanHotspot(t *testing.T) {
	_, res := runCorpusDeck(t, "plan_hotspot", 1)
	tech := plan.Technology{
		ViaRadius:            units.UM(30),
		LinerThickness:       units.UM(1),
		Extension:            units.UM(1),
		TSi1:                 units.UM(300),
		TSi:                  units.UM(300),
		TD:                   units.UM(20),
		TB:                   units.UM(10),
		NumPlanes:            3,
		MaxDensity:           0.1,
		DeviceLayerThickness: units.UM(1),
		Si:                   materials.Silicon,
		ILD:                  materials.SiO2,
		Bond:                 materials.Polyimide,
		Fill:                 materials.Copper,
		Liner:                materials.SiO2,
	}
	floor := &plan.Floorplan{
		TileSide: units.MM(1),
		PlanePowers: [][][]float64{
			{{0.10, 0.25, 0.20}, {0.15, 0.60, 0.50}, {0.10, 0.20, 0.15}},
			{{0.12, 0.30, 0.25}, {0.18, 0.70, 0.55}, {0.08, 0.15, 0.10}},
		},
	}
	model := core.ModelA{Coeffs: core.Coeffs{K1: 1.6, K2: 0.8, C1: 3.5}}
	exp, err := plan.PlanWith(floor, tech, 15, model, plan.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := &res.Analyses[0]
	if got.Kind != "plan" || !reflect.DeepEqual(got.Plan, exp) {
		t.Errorf("deck plan differs from struct-built plan:\ndeck:  %+v\nbuilt: %+v", got.Plan, exp)
	}
	if got.PlanModel != "A" || got.PlanBudget != 15 {
		t.Errorf("plan metadata = %q/%v", got.PlanModel, got.PlanBudget)
	}
}
