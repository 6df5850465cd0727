package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

// FuzzServeJSON feeds arbitrary bodies to the /solve, /sweep and /plan
// lowerings — decoding and validation only, no solve runs — and asserts two
// properties: lowering never panics, and every scenario it accepts stays
// within the request-size caps (deck.MaxRefine, deck.MaxSegments,
// deck.MaxSweepPoints). Seeds are the request bodies of the service tests
// plus the cap corner cases.
func FuzzServeJSON(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{`,
		`{} {}`,
		`{"bogus": 1}`,
		`{"models": {"model": "a"}}`,
		`{"models": {"model": "ref"}}`,
		`{"models": {"model": "x"}}`,
		`{"models": {"model": "all", "segments": 100}}`,
		`{"block": {"TB": 3e-6}, "models": {"model": "ref"}}`,
		`{"models": {"model": "ref", "refine": 8, "precond": "mg"}}`,
		`{"models": {"model": "ref", "refine": 9}}`,
		`{"models": {"model": "b", "segments": 10001}}`,
		`{"models": {"model": "ref", "ref_workers": 2}}`,
		`{"models": {"model": "ref", "operator": "csr"}}`,
		`{"param": "r"}`,
		`{"param": "zz", "values": [1e-6]}`,
		`{"param": "r", "values": [1e-5], "models": {"model": "ref", "mg_precision": "f32"}}`,
		`{"param": "r", "from": 5e-6, "to": 10e-6, "points": 6, "models": {"model": "a"}}`,
		`{"param": "r", "from": 5e-6, "to": 2e-5, "points": 12, "shard": "2/5", "models": {"model": "a"}}`,
		`{"param": "r", "from": 1e-6, "to": 2e-5, "points": 1000000000}`,
		`{"param": "r", "from": 1e-6, "to": 2e-5, "points": 10000, "models": {"model": "a"}}`,
		`{"budget": 15}`,
		`{"budget": 15, "floor": {"TileSide": 0.001, "PlanePowers": [[[0.1, 0.25, 0.2]], [[0.12, 0.3, 0.25]]]}}`,
		`{"budget": 15, "floor": {"TileSide": 0.001, "PlanePowers": [[[0.1]], [[0.1]]]}, "models": {"model": "b", "segments": 10000}}`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		if sc, err := s.lowerSolve(body); err == nil {
			checkCaps(t, sc)
		}
		if _, sc, _, err := s.lowerSweepRequest(body); err == nil {
			checkCaps(t, sc)
		}
		if sc, err := s.lowerPlan(body); err == nil {
			checkCaps(t, sc)
		}
	})
}

// checkCaps fails the test when an accepted scenario asks for more than the
// request-size caps allow.
func checkCaps(t *testing.T, sc *deck.Scenario) {
	t.Helper()
	for _, an := range sc.Analyses {
		var models []core.Model
		switch {
		case an.Op != nil:
			models = an.Op.Models
		case an.Sweep != nil:
			if n := len(an.Sweep.Values); n > deck.MaxSweepPoints {
				t.Fatalf("accepted a sweep of %d points", n)
			}
			models = an.Sweep.Models
		case an.Plan != nil:
			models = []core.Model{an.Plan.Model}
		}
		for _, m := range models {
			switch m := m.(type) {
			case fem.ReferenceModel:
				if n, max := refCells(t, m.Res), refCells(t, fem.DefaultResolution().Refine(deck.MaxRefine)); n > max {
					t.Fatalf("accepted a reference mesh of %d cells, more than refine %d's %d", n, deck.MaxRefine, max)
				}
			case core.ModelB:
				if m.PlaneSegments > deck.MaxSegments {
					t.Fatalf("accepted %d segments", m.PlaneSegments)
				}
			}
		}
	}
}

// refCells is the cell count of res's reference mesh of the Fig. 4 block:
// the mesh a ref model of the scenario would solve, up to its geometry.
func refCells(t *testing.T, res fem.Resolution) int {
	t.Helper()
	s, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := fem.BuildAxiProblem(s, res)
	if err != nil {
		t.Fatalf("accepted an unbuildable resolution: %v", err)
	}
	return (len(p.REdges) - 1) * (len(p.ZEdges) - 1)
}
