package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/stack"
)

// sink is the node index of the heat sink. It is pinned at ΔT = 0, so it is
// not an unknown of the ladder.
const sink = -1

// ladder is the linear system both analytic models reduce to (eqs. (1)-(6)
// for Model A, (17)-(21) for Model B). A surroundings rail and a via rail
// grow upward from the substrate node T0, which R_s ties to the sink, and
// liner rungs join them. Node 0 is T0; each rung appends its surroundings
// node S and its via node M, so the order is T0, S₁, M₁, S₂, M₂, … Every
// element joins nodes at most two apart in this order, so the nodal
// conductance matrix G is symmetric with half-bandwidth 2: its lower band is
// stamped directly and factors in O(n).
type ladder struct {
	// g is held by value, so a pooled ladder's band costs no allocation.
	g linalg.Band
	// q holds the heat injected at each node (W); solve overwrites it with
	// the temperatures.
	q []float64
	// c holds the thermal mass of each node (J/K); it is nil in a steady
	// ladder, which ignores masses.
	c []float64
	// s and m are the top nodes of the surroundings and via rails, and next
	// is the next free node index.
	s, m, next int
	// tops lists each plane's surroundings node at the top of the plane.
	tops []int
	// err is the first invalid element value; later stamps are skipped.
	err error
	// buf backs g, q and, in a transient ladder, c and the time-stepping
	// state; it outlives the solve in the pool.
	buf []float64
}

// maxPooledBytes caps the scratch a released ladder keeps in the pool.
// Every ladder of the paper's figures and tables fits (B(1000) on a
// three-plane block has 4 201 nodes, 134 KB of steady scratch); a larger
// one, up to the ~650 MB of a Model B request at the service's segment and
// plane caps, is left to the GC rather than pinned for the life of the
// process.
const maxPooledBytes = 1 << 20

// ladders recycles ladders and their scratch across solves, so a steady
// solve allocates little beyond its Result. It is the ladders' own pool,
// not fem's idle list, which keys whole solver contexts by grid shape and
// has nothing a ladder of a few nodes could take.
var ladders = sync.Pool{New: func() any { return new(ladder) }}

// newLadder returns a ladder of the given node count whose T0 drains to the
// sink through R_s (eq. (6)) and, when transient, carries the first plane's
// bulk substrate mass.
func newLadder(s *stack.Stack, nodes int, rs float64, transient bool) *ladder {
	l := pooledLadder(nodes, transient)
	l.link(sink, 0, rs, 1, "substrate")
	p0 := s.Planes[0]
	l.mass(0, (p0.SiThickness-s.Via.Extension)*s.Footprint*p0.Si.C, 1, "substrate")
	return l
}

// pooledLadder returns an empty ladder of the given node count from the
// pool. One buffer backs its band (3·nodes) and q, and in a transient
// ladder also c and the stepped temperatures; it grows only when too short.
// steady and transient release the ladder.
func pooledLadder(nodes int, transient bool) *ladder {
	width := 4 * nodes
	if transient {
		width += 2 * nodes
	}
	l := ladders.Get().(*ladder)
	if cap(l.buf) < width {
		l.buf = make([]float64, width)
	}
	buf := l.buf[:width]
	l.g = *linalg.NewBand(nodes, 2, buf[:3*nodes])
	l.q = buf[3*nodes : 4*nodes]
	clear(l.q)
	l.c = nil
	if transient {
		l.c = buf[4*nodes : 5*nodes]
		clear(l.c)
	}
	l.s, l.m, l.next, l.err = 0, 0, 1, nil
	l.tops = l.tops[:0]
	return l
}

// release returns l to the pool unless its scratch is over maxPooledBytes.
// Nothing may use l, or a slice of its scratch, afterwards.
func (l *ladder) release() {
	if 8*cap(l.buf) > maxPooledBytes {
		return
	}
	l.g, l.q, l.c = linalg.Band{}, nil, nil
	ladders.Put(l)
}

// built returns the assembled ladder, or releases it and returns the first
// invalid element value.
func (l *ladder) built() (*ladder, error) {
	if err := l.err; err != nil {
		l.release()
		return nil, err
	}
	return l, nil
}

// link stamps a thermal resistance r (K/W) of plane's element elem between
// nodes a and b; a may be the sink. The stamping order fixes the per-row
// accumulation order of G, and with it every bit of the result.
func (l *ladder) link(a, b int, r float64, plane int, elem string) {
	if l.err != nil {
		return
	}
	if !(r > 0) || math.IsInf(r, 1) {
		l.err = fmt.Errorf("core: plane %d %s resistance %g K/W must be positive and finite", plane, elem, r)
		return
	}
	g := 1 / r
	if a == sink {
		l.g.Add(b, b, g)
		return
	}
	l.g.Add(a, a, g)
	l.g.Add(b, b, g)
	l.g.Add(b, a, -g)
}

// mass lumps the thermal mass c (J/K) of plane's element elem onto node i.
// A steady ladder ignores it. Zero is a massless node.
func (l *ladder) mass(i int, c float64, plane int, elem string) {
	if l.c == nil || l.err != nil {
		return
	}
	if !(c >= 0) || math.IsInf(c, 1) {
		l.err = fmt.Errorf("core: plane %d %s capacitance %g J/K must be non-negative and finite", plane, elem, c)
		return
	}
	l.c[i] = c
}

// rung appends one surroundings node S and one via node M to the rails.
// rS joins S to the surroundings rail, rM joins M to the via rail, and the
// liner rL joins S to M. Heat q (W) enters at S; cS and cM are the masses.
func (l *ladder) rung(plane int, rS, rM, rL, q, cS, cM float64) {
	sn, mn := l.next, l.next+1
	l.link(l.s, sn, rS, plane, "surround")
	l.link(l.m, mn, rM, plane, "fill")
	l.link(sn, mn, rL, plane, "liner")
	l.q[sn] = q
	l.mass(sn, cS, plane, "surround")
	l.mass(mn, cM, plane, "fill")
	l.s, l.m, l.next = sn, mn, mn+1
}

// solve factors G and solves G·T = q, both in place: it returns T in q's
// storage.
func (l *ladder) solve(model string) ([]float64, error) {
	if err := l.g.Factor(); err != nil {
		return nil, fmt.Errorf("core: model %s solve: %w", model, err)
	}
	l.g.Solve(l.q, l.q)
	return l.q, nil
}

// steady solves G·T = q and reports T0, each plane's top node and the
// maximum rise, which counts the sink at 0. It releases l.
func (l *ladder) steady(model string) (*Result, error) {
	defer l.release()
	t, err := l.solve(model)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Model:    model,
		PlaneDT:  make([]float64, len(l.tops)),
		BaseDT:   t[0],
		Unknowns: len(t),
	}
	for i, k := range l.tops {
		out.PlaneDT[i] = t[k]
	}
	out.MaxDT = maxRise(t)
	return out, nil
}

// maxRise returns the largest of the node rises t and the sink's 0.
func maxRise(t []float64) float64 {
	var hi float64
	for _, v := range t {
		if v > hi {
			hi = v
		}
	}
	return hi
}

// transient integrates C·dT/dt = q − G·T with backward Euler from ΔT = 0,
// the sources switched on at t = 0, and reports the top plane's trace.
// G + C/dt is factored once, so each step is two band sweeps. Backward
// Euler is unconditionally stable and first-order accurate in dt. It
// releases l.
func (l *ladder) transient(model string, spec TransientSpec) (*TransientResult, error) {
	defer l.release()
	cdt := l.c // C/dt overwrites C, which nothing reads again
	for i, c := range l.c {
		cdt[i] = c / spec.Dt
		l.g.Add(i, i, cdt[i])
	}
	if err := l.g.Factor(); err != nil {
		return nil, fmt.Errorf("core: %s transient: %w", model, err)
	}
	top := l.tops[len(l.tops)-1]
	out := &TransientResult{
		Model: model,
		Times: make([]float64, spec.Steps),
		TopDT: make([]float64, spec.Steps),
	}
	n := len(l.q)
	x := l.buf[5*n : 6*n]
	clear(x)
	for k := range out.Times {
		for i := range x {
			x[i] = l.q[i] + float64(cdt[i]*x[i])
		}
		l.g.Solve(x, x)
		out.Times[k] = float64(k+1) * spec.Dt
		out.TopDT[k] = x[top]
	}
	out.FinalDT = out.TopDT[spec.Steps-1]
	out.SettlingTime, out.Settled = settle(out.Times, out.TopDT, 0.05)
	return out, nil
}

// settle returns the first time from which trace stays within fraction of
// its final value. The final sample always matches itself, so settling only
// at the last instant means the trace was still moving: settle then reports
// the horizon and false.
func settle(times, trace []float64, fraction float64) (float64, bool) {
	last := len(trace) - 1
	band := math.Abs(trace[last]) * fraction
	k := last
	for k > 0 && math.Abs(trace[k-1]-trace[last]) <= band {
		k--
	}
	if k == last {
		return times[last], false
	}
	return times[k], true
}

// columnHeatCap is the heat capacity per unit height (J/(K·m)) of the via
// fill plus liner column, which both models lump onto their via nodes.
func columnHeatCap(s *stack.Stack) float64 {
	v := s.Via
	metalArea := v.MetalArea()
	rl := v.SplitRadius() + v.LinerThickness
	linerArea := float64(float64(v.EffectiveCount())*math.Pi*rl*rl) - metalArea
	return float64(metalArea*v.Fill.C) + float64(linerArea*v.Liner.C)
}
