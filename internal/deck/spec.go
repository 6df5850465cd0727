package deck

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/sparse"
)

// ModelSpec is the deck-independent model selection shared by analysis cards
// and the solve service's JSON requests: both lower to the same spec and
// build model values through the same code path, so a JSON request and the
// equivalent deck card produce value-identical models (and therefore
// byte-identical reports and shared cache/coalescing keys).
//
// The zero value of every field selects the analysis default; see Models.
type ModelSpec struct {
	// Model selects the models: "a", "b", "1d", "ref", "all" or a comma
	// list, case-insensitive. Empty selects the analysis default.
	Model string `json:"model,omitempty"`
	// Segments is Model B's per-plane segment count; 0 selects 100.
	Segments int `json:"segments,omitempty"`
	// K1, K2, C1 are Model A's fitting coefficients; all three zero selects
	// the analysis default coefficients.
	K1 float64 `json:"k1,omitempty"`
	K2 float64 `json:"k2,omitempty"`
	C1 float64 `json:"c1,omitempty"`
	// Refine uniformly refines the reference resolution; 0 and 1 select the
	// default mesh.
	Refine int `json:"refine,omitempty"`
	// Precond selects the reference solver ("auto": the grid rule, "mg":
	// multigrid); empty selects "auto".
	Precond string `json:"precond,omitempty"`
}

// Request-size caps. A few bytes of deck or JSON can otherwise ask for an
// arbitrarily large grid, Model B network, sweep or transient, so each is
// checked where specs are validated, before anything is allocated. The caps
// are fixed rather than derived from the host, so a request is valid or
// invalid everywhere.
const (
	// MaxRefine caps ModelSpec.Refine: the deepest refinement the repository
	// runs (about 93k unknowns, 39 MB per solve).
	MaxRefine = 8
	// MaxSegments caps ModelSpec.Segments at 10× the largest Model B the
	// repository runs, B(1000).
	MaxSegments = 10000
	// MaxSweepPoints caps the point count of one sweep; see
	// CheckSweepPoints.
	MaxSweepPoints = 10000
	// MaxTranSteps caps the step count of one .tran analysis at 25× the
	// longest transient the repository runs (400 steps).
	MaxTranSteps = 10000
)

// CheckSweepPoints rejects a sweep of more than MaxSweepPoints points. Deck
// .sweep cards and JSON sweep requests both call it before building their
// value lists.
func CheckSweepPoints(n int) error {
	if n > MaxSweepPoints {
		return fmt.Errorf("sweep has %d points, more than the maximum %d", n, MaxSweepPoints)
	}
	return nil
}

// Models resolves the spec into concrete model values, substituting defSpec
// and defCoeffs for zero fields. Every construction path — deck cards, JSON
// requests — funnels through here.
func (sp ModelSpec) Models(defSpec string, defCoeffs core.Coeffs) ([]core.Model, error) {
	if sp.Model == "" {
		sp.Model = defSpec
	}
	if sp.Segments == 0 {
		sp.Segments = 100
	}
	if sp.K1 == 0 && sp.K2 == 0 && sp.C1 == 0 {
		sp.K1, sp.K2, sp.C1 = defCoeffs.K1, defCoeffs.K2, defCoeffs.C1
	}
	if sp.Refine == 0 {
		sp.Refine = 1
	}
	if sp.Precond == "" {
		sp.Precond = "auto"
	}
	return sp.build()
}

// specError tags a spec validation failure with the offending field so the
// deck reader can re-attach its card position.
type specError struct {
	field string
	msg   string
}

func (e *specError) Error() string { return e.msg }

// build constructs the model values from a fully-populated spec. All
// validation of spec fields lives here; errors are *specError.
func (sp ModelSpec) build() ([]core.Model, error) {
	if sp.Segments < 1 || sp.Segments > MaxSegments {
		return nil, &specError{"segments", fmt.Sprintf("segments must be in [1, %d], got %d", MaxSegments, sp.Segments)}
	}
	if sp.Refine < 1 || sp.Refine > MaxRefine {
		return nil, &specError{"refine", fmt.Sprintf("refine must be in [1, %d], got %d", MaxRefine, sp.Refine)}
	}
	res := fem.DefaultResolution().Refine(sp.Refine)
	pk, err := sparse.ParsePrecond(sp.Precond)
	if err != nil {
		return nil, &specError{"precond", err.Error()}
	}
	res.Precond = pk
	coeffs := core.Coeffs{K1: sp.K1, K2: sp.K2, C1: sp.C1}
	one := func(name string) (core.Model, error) {
		switch name {
		case "a":
			return core.ModelA{Coeffs: coeffs}, nil
		case "b":
			return core.NewModelB(sp.Segments), nil
		case "1d":
			return core.Model1D{}, nil
		case "ref":
			return fem.ReferenceModel{Res: res}, nil
		default:
			return nil, &specError{"model", fmt.Sprintf("unknown model %q (want A, B, 1D, ref or all)", name)}
		}
	}
	spec := strings.ToLower(sp.Model)
	if spec == "all" {
		a, _ := one("a")
		b, _ := one("b")
		d1, _ := one("1d")
		return []core.Model{a, b, d1}, nil
	}
	var models []core.Model
	for _, name := range strings.Split(spec, ",") {
		m, err := one(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}
