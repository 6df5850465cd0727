package sweep

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/sparse"
	"repro/internal/stack"
)

// oldCacheKey is the %#v formula the canonical encoder replaced, kept here
// as the behavioral reference: for every model type in the repository today
// (plain value structs without pointer or map fields) it was a complete
// serialization, so the canonical key must preserve exactly its equalities
// and its distinctions on those types.
func oldCacheKey(m core.Model, s *stack.Stack) string {
	return fmt.Sprintf("%T|%#v|%#v", m, m, *s)
}

// keyCases enumerates (model, stack) points spanning every current model
// type and the stack fields the key must resolve: coefficients, segment
// counts, resolutions, via geometry, materials, NaN corners.
func keyCases(t *testing.T) []struct {
	name  string
	model core.Model
	stack *stack.Stack
} {
	t.Helper()
	base := fig4Stack(t, 10)
	r12 := fig4Stack(t, 12)
	nanStack := base.Clone()
	nanStack.Footprint = math.NaN()
	matStack := base.Clone()
	matStack.Planes[0].Si.K = matStack.Planes[0].Si.K + 1
	refined := fem.DefaultResolution().Refine(2)

	return []struct {
		name  string
		model core.Model
		stack *stack.Stack
	}{
		{"A/paper", core.ModelA{Coeffs: core.PaperBlockCoeffs()}, base},
		{"A/system", core.ModelA{Coeffs: core.PaperSystemCoeffs()}, base},
		{"A/paper/r12", core.ModelA{Coeffs: core.PaperBlockCoeffs()}, r12},
		{"A/k1-epsilon", core.ModelA{Coeffs: core.Coeffs{K1: math.Nextafter(1.3, 2), K2: 0.55, C1: 1}}, base},
		{"B/100", core.NewModelB(100), base},
		{"B/20", core.NewModelB(20), base},
		{"1D", core.Model1D{}, base},
		{"1D/nan", core.Model1D{}, nanStack},
		{"1D/material", core.Model1D{}, matStack},
		{"FVM/default", fem.ReferenceModel{}, base},
		{"FVM/refined", fem.ReferenceModel{Res: refined}, base},
		{"FVM/precond", fem.ReferenceModel{Res: fem.Resolution{Precond: sparse.PrecondMG}}, base},
	}
}

// TestCacheKeyPreservesOldKeySpace: on every pair of current-model-type
// points, the canonical key collides exactly where the old %#v key collided
// and distinguishes exactly where it distinguished.
func TestCacheKeyPreservesOldKeySpace(t *testing.T) {
	cases := keyCases(t)
	for i := range cases {
		for j := range cases {
			oldEq := oldCacheKey(cases[i].model, cases[i].stack) == oldCacheKey(cases[j].model, cases[j].stack)
			newEq := cacheKey(cases[i].model, cases[i].stack) == cacheKey(cases[j].model, cases[j].stack)
			if oldEq != newEq {
				t.Errorf("%s vs %s: old key equal=%v, canonical key equal=%v",
					cases[i].name, cases[j].name, oldEq, newEq)
			}
		}
	}
	// Self-consistency: every case must equal itself under both keys (guards
	// against an encoder that injects per-call state).
	for _, c := range cases {
		if cacheKey(c.model, c.stack) != cacheKey(c.model, c.stack) {
			t.Errorf("%s: canonical key not stable across calls", c.name)
		}
	}
}

// pointerModel simulates a future model type gaining a pointer field — the
// exact shape that silently broke the %#v key (it rendered the address, so
// two equal configurations never shared a cache slot).
type pointerModel struct {
	Coeffs *core.Coeffs
}

func (pointerModel) Name() string                             { return "ptr-probe" }
func (pointerModel) Solve(*stack.Stack) (*core.Result, error) { return &core.Result{}, nil }

func TestCacheKeyHandlesPointerFields(t *testing.T) {
	s := fig4Stack(t, 10)
	c1 := core.PaperBlockCoeffs()
	c2 := core.PaperBlockCoeffs()
	m1, m2 := pointerModel{&c1}, pointerModel{&c2}
	if cacheKey(m1, s) != cacheKey(m2, s) {
		t.Fatalf("equal configurations behind distinct pointers do not share a key: %x vs %x",
			cacheKey(m1, s), cacheKey(m2, s))
	}
	c3 := core.PaperSystemCoeffs()
	if cacheKey(m1, s) == cacheKey(pointerModel{&c3}, s) {
		t.Fatal("distinct configurations behind pointers share a key")
	}
	if cacheKey(pointerModel{nil}, s) == cacheKey(m1, s) {
		t.Fatal("nil pointer configuration aliases a non-nil one")
	}
}

// TestReferenceModelKeysByMesh: a reference model's key names its mesh
// level, not how the level was written. The zero Resolution,
// DefaultResolution and DefaultResolution().Refine(1) are one model (one
// cache slot, one ttsvd coalescing key), and Refine(2) is another; through
// one Cache the three solve once.
func TestReferenceModelKeysByMesh(t *testing.T) {
	s := fig4Stack(t, 10)
	same := []fem.Resolution{{}, fem.DefaultResolution(), fem.DefaultResolution().Refine(1)}
	for _, res := range same[1:] {
		if a, b := cacheKey(fem.ReferenceModel{Res: res}, s), cacheKey(fem.ReferenceModel{}, s); a != b {
			t.Errorf("key of %+v differs from the zero model's: %x vs %x", res, a, b)
		}
	}
	if cacheKey(fem.ReferenceModel{Res: fem.DefaultResolution().Refine(2)}, s) == cacheKey(fem.ReferenceModel{}, s) {
		t.Error("Refine(2) shares the base mesh's key")
	}
	c := NewCache()
	for _, res := range same {
		if _, err := Cached(fem.ReferenceModel{Res: res}, c).Solve(s); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses, _ := c.Counters(); misses != 1 || hits != 2 {
		t.Errorf("three spellings of the base mesh: %d misses, %d hits, want 1 and 2", misses, hits)
	}
}
