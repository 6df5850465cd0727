package fem

// The classical flux-tube spreading-resistance solution, a check on the FVM:
// a circular heat source of radius a centered on a cylinder of radius b and
// height t with adiabatic sides and an isothermal base. This is the
// canonical analytical description of lateral heat spreading in a thick
// substrate, the physics behind the paper's case-study coefficient c₁,₂,
// which boosts the first plane's conductance to account for the spreading a
// 300 µm substrate above the heat sink provides.
//
// The solution is the standard Bessel series (Yovanovich et al.): with
// δ_n the positive roots of J₁ and ε = a/b, τ = t/b,
//
//	R_total = t/(kπb²) + R_sp
//	R_sp    = 4/(π k ε² b) · Σ_n J₁²(δ_n ε) / (δ_n³ J₀²(δ_n)) · tanh(δ_n τ)
//
// R_sp vanishes as ε → 1 (full-face source) and approaches the Mikic
// half-space limit ψ ≈ (1-ε)^{3/2}/(4 k a) for deep tubes.

import (
	"context"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// j1Roots holds the first 60 positive roots of J₁; the series converges
// like 1/δ³, so 60 terms are far more accurate than the FVM it checks.
var j1Roots = computeJ1Roots(60)

// computeJ1Roots finds the first n positive roots of the Bessel function J₁
// by bisection; the roots are asymptotically spaced ~π apart starting near
// 3.8317.
func computeJ1Roots(n int) []float64 {
	roots := make([]float64, 0, n)
	lo := 2.0
	for len(roots) < n {
		hi := lo + 0.1
		// March until the sign changes.
		for math.Signbit(math.J1(lo)) == math.Signbit(math.J1(hi)) {
			lo = hi
			hi += 0.1
		}
		// Bisect.
		a, b := lo, hi
		for i := 0; i < 80; i++ {
			mid := 0.5 * (a + b)
			if math.Signbit(math.J1(a)) == math.Signbit(math.J1(mid)) {
				a = mid
			} else {
				b = mid
			}
		}
		roots = append(roots, 0.5*(a+b))
		lo = b + 0.5
	}
	return roots
}

// tubeResistance is the total thermal resistance (K/W) from a circular
// isoflux source of radius a to the isothermal base of a cylinder with
// radius b ≥ a, height t and conductivity k: the 1-D bulk term plus the
// spreading term, using the average source temperature.
func tubeResistance(a, b, t, k float64) float64 {
	return t/(k*math.Pi*b*b) + spreadingResistance(a, b, t, k)
}

// spreadingResistance is only the constriction/spreading part (K/W).
func spreadingResistance(a, b, t, k float64) float64 {
	eps := a / b
	tau := t / b
	var sum float64
	for _, d := range j1Roots {
		j1 := math.J1(d * eps)
		j0 := math.J0(d)
		sum += j1 * j1 / (d * d * d * j0 * j0) * math.Tanh(d*tau)
	}
	return 4 / (math.Pi * k * eps * eps * b) * sum
}

func TestJ1Roots(t *testing.T) {
	// The first roots of J1 are tabulated: 3.8317, 7.0156, 10.1735, 13.3237.
	want := []float64{3.83170597, 7.01558667, 10.17346814, 13.32369194}
	for i, w := range want {
		if math.Abs(j1Roots[i]-w) > 1e-6 {
			t.Errorf("root %d = %.8f, want %.8f", i, j1Roots[i], w)
		}
	}
	// All roots must actually be roots and increasing.
	for i, r := range j1Roots {
		if math.Abs(math.J1(r)) > 1e-10 {
			t.Errorf("J1(root %d) = %g", i, math.J1(r))
		}
		if i > 0 && r <= j1Roots[i-1] {
			t.Errorf("roots not increasing at %d", i)
		}
	}
}

func TestSpreadingVanishesForFullFaceSource(t *testing.T) {
	// ε = 1: the source covers the tube; only the bulk term remains.
	sp := spreadingResistance(1e-3, 1e-3, 1e-3, 100)
	full := tubeResistance(1e-3, 1e-3, 1e-3, 100)
	bulk := 1e-3 / (100 * math.Pi * 1e-6)
	if math.Abs(sp)/bulk > 1e-6 {
		t.Errorf("spreading %g not negligible vs bulk %g at ε=1", sp, bulk)
	}
	if math.Abs(full-bulk)/bulk > 1e-6 {
		t.Errorf("total %g, want bulk %g", full, bulk)
	}
}

func TestDeepTubeMatchesMikic(t *testing.T) {
	// τ = t/b ≫ 1: the series approaches the half-space constriction value
	// ψ/(4ka) with ψ = (1-ε)^{3/2}.
	const (
		a, b, k = 0.1e-3, 1e-3, 50.0
		tt      = 10e-3 // τ = 10
	)
	sp := spreadingResistance(a, b, tt, k)
	mikic := math.Pow(1-a/b, 1.5) / (4 * k * a)
	// Mikic's (1-ε)^1.5 correlation is itself a few percent off the
	// exact isoflux average-temperature solution; allow 15%.
	if e := math.Abs(sp-mikic) / mikic; e > 0.15 {
		t.Errorf("deep-tube spreading %g vs Mikic %g (%.1f%%)", sp, mikic, 100*e)
	}
}

func TestSeriesAgainstFVM(t *testing.T) {
	// The strongest check: solve the exact same flux-tube problem with the
	// axisymmetric FVM — isoflux disc source (thin heated layer) of radius a
	// on a cylinder with isothermal base — and compare resistances.
	const (
		a, b, tt, k = 0.3e-3, 1e-3, 0.5e-3, 30.0
		qv          = 1e9 // W/m³ in the source sliver
		sliver      = 2e-6
	)
	r, err := mesh.Line(0, []mesh.Interval{
		{Hi: a, Cells: 24},
		{Hi: b, Cells: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	z, err := mesh.Line(0, []mesh.Interval{
		{Hi: tt - sliver, Cells: 60, Ratio: 1.02},
		{Hi: tt, Cells: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &AxiProblem{
		REdges: r, ZEdges: z,
		K: func(_, _ float64) float64 { return k },
		Q: func(rr, zz float64) float64 {
			if zz > tt-sliver && rr < a {
				return qv
			}
			return 0
		},
		Bottom: Fixed(0),
		Top:    Insulated(),
		Outer:  Insulated(),
	}
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	// Average source temperature over the disc.
	var tSum, aSum float64
	top := len(sol.ZCenters) - 1
	for i, rr := range sol.RCenters {
		if rr >= a {
			break
		}
		ring := math.Pi * (p.REdges[i+1]*p.REdges[i+1] - p.REdges[i]*p.REdges[i])
		tSum += sol.T[top][i] * ring
		aSum += ring
	}
	q := qv * math.Pi * a * a * sliver
	rFVM := (tSum / aSum) / q
	rSeries := tubeResistance(a, b, tt, k)
	// They agree to 0.19%; the bound leaves room for rounding, not for a
	// regression of the reference on this geometry.
	if e := math.Abs(rFVM-rSeries) / rSeries; e > 0.005 {
		t.Errorf("FVM %g K/W vs series %g K/W (%.2f%%)", rFVM, rSeries, 100*e)
	}
}

func TestSpreadingMonotonicity(t *testing.T) {
	// Smaller sources constrict more.
	var prev float64
	for i, a := range []float64{0.9e-3, 0.6e-3, 0.3e-3, 0.1e-3} {
		sp := spreadingResistance(a, 1e-3, 1e-3, 10)
		if i > 0 && sp <= prev {
			t.Fatalf("spreading not increasing as the source shrinks: %g then %g", prev, sp)
		}
		prev = sp
	}
}

func TestCaseStudySpreadingSupportsC12(t *testing.T) {
	// The paper's case-study coefficient c₁,₂ = 3.5 boosts the first
	// plane's conductance. Physically: the unit cell's heat converges on
	// the via/cell center before entering the 300 µm substrate, which then
	// spreads it — the naive 1-D estimate t/(kπa²) over the concentrated
	// area is several times too pessimistic. Model the concentrated entry
	// as a disc of roughly a third of the cell radius on the 300 µm
	// substrate: the 1-D/spreading ratio must land in the same few-× regime
	// as c₁,₂.
	const (
		cellRadius = 424e-6 // equal-area radius of the 752 µm case-study cell
		tSub       = 300e-6
		kSi        = 130.0
	)
	a := cellRadius / 3
	oneD := tSub / (kSi * math.Pi * a * a)
	ratio := oneD / tubeResistance(a, cellRadius, tSub, kSi)
	if ratio < 1.5 || ratio > 8 {
		t.Errorf("spreading ratio %.2f outside the plausible c₁,₂ regime (paper fits 3.5)", ratio)
	}
}
