package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stack"
)

// element is one resistor of a transcribed network; a == sink is the heat
// sink.
type element struct {
	a, b int
	r    float64
}

// modelANetwork transcribes Fig. 2 for any plane count as an element list
// and per-node heat, in the node order T0, T1, T2, ..., T_{2n-1}: the odd
// nodes are planes, the even ones the via between them.
func modelANetwork(t *testing.T, s *stack.Stack, c Coeffs) ([]element, []float64) {
	t.Helper()
	res, rs, err := Resistances(s, c)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Planes)
	q := make([]float64, 2*n)
	els := []element{{sink, 0, rs}}
	for i, r := range res {
		plane, below, via := 2*i+1, 2*i-1, 2*i // plane i's nodes, the plane and via below
		if i == 0 {
			below, via = 0, 0
		}
		q[plane] = s.Planes[i].TotalPower()
		els = append(els, element{below, plane, r.Surround})
		if i == n-1 {
			els = append(els, element{via, plane, r.Metal + r.Liner})
			continue
		}
		els = append(els, element{via, plane + 1, r.Metal}, element{plane, plane + 1, r.Liner})
	}
	return els, q
}

// modelBNetwork transcribes Fig. 3 and eqs. (20)-(21): per plane, the
// silicon segments (the first carrying the bond) and then the ILD segments,
// each a surroundings node S and a via node M in the order T0, S, M, S, M.
// It evaluates each element with the same arithmetic as ModelB.ladder:
// B(500) is conditioned so that a one-ulp change in its element values
// moves the solution by ~1e-9 relative.
func modelBNetwork(t *testing.T, m ModelB, s *stack.Stack) ([]element, []float64) {
	t.Helper()
	res, rs, err := Resistances(s, UnitCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	a := s.SurroundArea()
	els := []element{{sink, 0, rs}}
	q := []float64{0}
	add := func(vertical, metal, liner, heat float64) {
		sNode, mNode := len(q), len(q)+1
		belowS, belowM := sNode-2, sNode-1
		if sNode == 1 {
			belowS, belowM = 0, 0
		}
		els = append(els, element{belowS, sNode, vertical}, element{belowM, mNode, metal}, element{sNode, mNode, liner})
		q = append(q, heat, 0)
	}
	for i, p := range s.Planes {
		nILD, nSi := m.Plane1Segments, 0
		if i > 0 {
			seg := splitSegments(m.PlaneSegments, p.ILDThickness, p.SiThickness)
			nILD, nSi = seg.nILD, seg.nSi
		}
		n := float64(nILD + nSi)
		metal, liner := res[i].Metal/n, res[i].Liner*n
		var ild, si, bond float64
		if i == 0 {
			ild = (p.ILDThickness/p.ILD.K + s.Via.Extension/p.Si.K) / a / float64(nILD)
		} else {
			ild = p.ILDThickness / (p.ILD.K * a * float64(nILD))
			si = p.SiThickness / (p.Si.K * a * float64(nSi))
			bond = p.BondThickness / (p.Bond.K * a)
			if nSi == 0 {
				ild += (p.SiThickness/p.Si.K + p.BondThickness/p.Bond.K) / a
			}
		}
		for k := 0; k < nSi; k++ {
			if k == 0 {
				add(si+bond, metal, liner, 0)
			} else {
				add(si, metal, liner, 0)
			}
		}
		for k := 0; k < nILD; k++ {
			add(ild, metal, liner, p.TotalPower()/float64(nILD))
		}
	}
	return els, q
}

// TestLadderMatchesDenseSolve checks each model's banded ladder against a
// dense LU solve of the conductance matrix the test stamps from its own
// transcription of the paper's network, and checks KCL at every node.
func TestLadderMatchesDenseSolve(t *testing.T) {
	blocks := map[int]*stack.Stack{}
	for _, n := range []int{2, 3, 5} {
		c := stack.DefaultBlock()
		c.NumPlanes = n
		s, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		blocks[n] = s
	}
	type tc struct {
		name string
		l    func() (*ladder, error)
		net  func() ([]element, []float64)
	}
	var cases []tc
	for _, n := range []int{2, 3, 5} {
		s, m := blocks[n], ModelA{Coeffs: PaperBlockCoeffs()}
		cases = append(cases, tc{fmt.Sprintf("A/%dplanes", n),
			func() (*ladder, error) { return m.ladder(s, false) },
			func() ([]element, []float64) { return modelANetwork(t, s, m.Coeffs) }})
	}
	for _, m := range []ModelB{NewModelB(1), NewModelB(20), NewModelB(500)} {
		s, m := blocks[3], m
		cases = append(cases, tc{m.Name(),
			func() (*ladder, error) { return m.ladder(s, false) },
			func() ([]element, []float64) { return modelBNetwork(t, m, s) }})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, err := c.l()
			if err != nil {
				t.Fatal(err)
			}
			got, err := l.solve(c.name)
			if err != nil {
				t.Fatal(err)
			}
			els, q := c.net()
			if len(q) != len(got) {
				t.Fatalf("ladder has %d nodes, transcription %d", len(got), len(q))
			}
			g := newDense(len(q))
			for _, e := range els {
				cond := 1 / e.r
				g.Add(e.b, e.b, cond)
				if e.a != sink {
					g.Add(e.a, e.a, cond)
					g.Add(e.a, e.b, -cond)
					g.Add(e.b, e.a, -cond)
				}
			}
			want, err := g.solve(q)
			if err != nil {
				t.Fatal(err)
			}
			var sumQ float64
			for i := range want {
				sumQ += q[i]
				if d := math.Abs(got[i] - want[i]); d > 1e-12*math.Abs(want[i]) {
					t.Errorf("node %d: ladder %.17g, dense %.17g (rel %.3g)", i, got[i], want[i], d/math.Abs(want[i]))
				}
			}
			// KCL: the heat injected at each node leaves through its elements.
			const eps = 0x1p-52
			resid := append([]float64(nil), q...)
			gross := make([]float64, len(q))
			for _, e := range els {
				ta := 0.0
				if e.a != sink {
					ta = got[e.a]
				}
				f := (got[e.b] - ta) / e.r // from b to a
				gf := (math.Abs(got[e.b]) + math.Abs(ta)) / e.r
				resid[e.b] -= f
				gross[e.b] += gf
				if e.a != sink {
					resid[e.a] += f
					gross[e.a] += gf
				}
			}
			for i, r := range resid {
				// 1e-12·Σq is below the float64 floor of B(500)'s thin
				// silicon segments: one ulp of T through their 0.08 K/W
				// exceeds it. There the bound is 4 ulps of the node's gross
				// flow Σ|T|/R instead.
				if tol := math.Max(1e-12*sumQ, 4*eps*gross[i]); math.Abs(r) > tol {
					t.Errorf("node %d: KCL residual %g W exceeds %g W", i, r, tol)
				}
			}
		})
	}
}

// rcLadder is a single node with heat q, mass c and resistance r to the
// sink: T(t) = qR(1 − exp(−t/RC)).
func rcLadder(r, c, q float64) *ladder {
	l := pooledLadder(1, true)
	l.q[0], l.c[0] = q, c
	l.tops = append(l.tops, 0)
	l.link(sink, 0, r, 1, "r")
	return l
}

func TestTransientRCStepResponse(t *testing.T) {
	// R = 2, C = 3, q = 5: steady 10, time constant 6, run to 10 τ.
	const r, c, q = 2.0, 3.0, 5.0
	tr, err := rcLadder(r, c, q).transient("rc", TransientSpec{Dt: 0.01, Steps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range tr.Times {
		want := q * r * (1 - math.Exp(-tm/(r*c)))
		// Backward Euler is first order; 1% of the steady value is ample
		// for dt = RC/600.
		if got := tr.TopDT[k]; math.Abs(got-want) > 0.01*q*r {
			t.Fatalf("t=%g: T = %g, want %g", tm, got, want)
		}
	}
	if math.Abs(tr.FinalDT-q*r) > 1e-3 {
		t.Errorf("final %g, want %g", tr.FinalDT, q*r)
	}
	if math.Abs(tr.Times[len(tr.Times)-1]-60) > 1e-9 {
		t.Errorf("horizon %g, want 60", tr.Times[len(tr.Times)-1])
	}
}

func TestTransientDecay(t *testing.T) {
	// The gap to steady state decays by exactly 1/(1 + dt/τ) per backward
	// Euler step, which tracks exp(−t/τ). R = 4, C = 0.5: τ = 2.
	const r, c, q, dt = 4.0, 0.5, 1.75, 0.002
	tr, err := rcLadder(r, c, q).transient("rc", TransientSpec{Dt: dt, Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range tr.Times {
		gap := q*r - tr.TopDT[k]
		exact := q * r * math.Pow(1+dt/(r*c), -float64(k+1))
		if math.Abs(gap-exact) > 1e-12*q*r {
			t.Fatalf("t=%g: gap %g, want %g", tm, gap, exact)
		}
		if want := q * r * math.Exp(-tm/(r*c)); math.Abs(gap-want) > 0.02 {
			t.Fatalf("t=%g: gap %g, want ≈%g", tm, gap, want)
		}
	}
}

func TestTransientTimestepConvergence(t *testing.T) {
	// Halving dt halves the error against the analytic solution at t = 2
	// (first-order convergence of backward Euler).
	errAt := func(dt float64) float64 {
		tr, err := rcLadder(1, 1, 1).transient("rc", TransientSpec{Dt: dt, Steps: int(math.Round(2 / dt))})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(tr.FinalDT - (1 - math.Exp(-2)))
	}
	e1, e2, e3 := errAt(0.2), errAt(0.1), errAt(0.05)
	if !(e2 < e1 && e3 < e2) {
		t.Fatalf("no convergence: %g, %g, %g", e1, e2, e3)
	}
	if ratio := e1 / e2; ratio < 1.5 || ratio > 3 {
		t.Errorf("convergence ratio %g, want ≈2", ratio)
	}
}

func TestTransientSettling(t *testing.T) {
	// τ = 6: the 5% band is reached at τ·ln 20 ≈ 18 within a 120 horizon.
	tr, err := rcLadder(2, 3, 5).transient("rc", TransientSpec{Dt: 0.05, Steps: 2400})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Settled || tr.SettlingTime < 15 || tr.SettlingTime > 21 {
		t.Errorf("settling (%g, %v), want ≈18", tr.SettlingTime, tr.Settled)
	}
	// A trace still rising at the horizon only matches its final value at
	// the last instant: that is not settling.
	short, err := rcLadder(2, 3, 5).transient("rc", TransientSpec{Dt: 0.05, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if short.Settled || short.SettlingTime != short.Times[2] {
		t.Errorf("short horizon: settling (%g, %v), want (%g, false)", short.SettlingTime, short.Settled, short.Times[2])
	}
	times := []float64{1, 2, 3}
	if ts, ok := settle(times, []float64{0, 0.5, 1}, 0.05); ok || ts != 3 {
		t.Errorf("settled only at the last instant: (%g, %v), want (3, false)", ts, ok)
	}
	if ts, ok := settle(times, []float64{0, 0.99, 1}, 0.05); !ok || ts != 2 {
		t.Errorf("settled at t=2: (%g, %v), want (2, true)", ts, ok)
	}
	if ts, ok := settle(times, []float64{1, 1, 1}, 0.05); !ok || ts != 1 {
		t.Errorf("flat trace: (%g, %v), want (1, true)", ts, ok)
	}
}

func TestTransientMasslessNode(t *testing.T) {
	// A zero mass is an algebraic node: it settles within the first step.
	tr, err := rcLadder(2, 0, 5).transient("rc", TransientSpec{Dt: 0.1, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range tr.TopDT {
		if v != 10 {
			t.Errorf("step %d: %g, want 10", k, v)
		}
	}
}

func TestLadderRejectsBadElements(t *testing.T) {
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		l := rcLadder(1, 1, 1)
		l.link(0, 0, r, 2, "liner")
		if l.err == nil || !strings.Contains(l.err.Error(), "plane 2 liner resistance") {
			t.Errorf("resistance %g: err %v", r, l.err)
		}
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		l := rcLadder(1, 1, 1)
		l.mass(0, c, 3, "fill")
		if l.err == nil || !strings.Contains(l.err.Error(), "plane 3 fill capacitance") {
			t.Errorf("capacitance %g: err %v", c, l.err)
		}
	}

	// An infinitely conducting fill makes the fill resistance zero.
	s := fig4Stack(t)
	s.Via.Fill.K = math.Inf(1)
	for _, m := range []Model{ModelA{Coeffs: PaperBlockCoeffs()}, NewModelB(20)} {
		if _, err := m.Solve(s); err == nil || !strings.Contains(err.Error(), "plane 1 fill resistance 0") {
			t.Errorf("%s: err %v", m.Name(), err)
		}
	}

	// A NaN heat capacity fails the transient; steady solves ignore it.
	s = fig4Stack(t)
	s.Via.Fill.C = math.NaN()
	for _, m := range []interface {
		Model
		SolveTransient(*stack.Stack, TransientSpec) (*TransientResult, error)
	}{ModelA{Coeffs: PaperBlockCoeffs()}, NewModelB(20)} {
		if _, err := m.SolveTransient(s, blockSpec()); err == nil || !strings.Contains(err.Error(), "plane 1 fill capacitance") {
			t.Errorf("%s transient: err %v", m.Name(), err)
		}
		if _, err := m.Solve(s); err != nil {
			t.Errorf("%s steady: %v", m.Name(), err)
		}
	}
}
