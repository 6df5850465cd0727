package core

import "repro/internal/stack"

// ModelA is the paper's compact resistive-network TTSV model (§II, Fig. 2).
// Each plane contributes a vertical surroundings resistor, a vertical via
// fill resistor and a lateral liner resistor; two fitted coefficients absorb
// the difference between this three-path abstraction and the true
// multi-dimensional heat flow. It generalizes to any number of planes ≥ 2
// exactly as the paper describes: plane 1 follows the R1-R3 pattern, the top
// plane the R7-R9 pattern (with fill and liner in series into the plane
// below), and every other plane the R4-R6 pattern.
type ModelA struct {
	// Coeffs are the fitting coefficients; zero value is invalid, use
	// PaperBlockCoeffs/PaperSystemCoeffs/UnitCoeffs or calibrate.
	Coeffs Coeffs
}

// Name implements Model.
func (m ModelA) Name() string { return "A" }

// Solve implements Model by solving the nodal equations of the Fig. 2
// network (eqs. (1)-(6) for three planes).
func (m ModelA) Solve(s *stack.Stack) (*Result, error) {
	l, err := m.ladder(s, false)
	if err != nil {
		return nil, err
	}
	return l.steady(m.Name())
}

// MaxDT returns Solve(s).MaxDT, bit for bit, without building a Result: it
// solves the pooled ladder and allocates nothing, for callers such as a
// calibration objective that read only the maximum rise.
func (m ModelA) MaxDT(s *stack.Stack) (float64, error) {
	l, err := m.ladder(s, false)
	if err != nil {
		return 0, err
	}
	defer l.release()
	t, err := l.solve(m.Name())
	if err != nil {
		return 0, err
	}
	return maxRise(t), nil
}

// ladder assembles the Fig. 2 network for any plane count. Every plane
// below the top is one rung (R1-R3, R4-R6, ...) whose node S is the plane
// temperature T1, T3, ... and whose node M is the via temperature T2, T4,
// .... The top plane is a single node fed by its surroundings resistor and
// by fill and liner in series from the via node below (R7 and R8 + R9 in
// eq. (1)). A transient ladder lumps each plane's surroundings volume onto
// S, its fill and liner column onto M, and the top plane's whole mass onto
// its one node.
func (m ModelA) ladder(s *stack.Stack, transient bool) (*ladder, error) {
	rs, err := substrateResistance(s, m.Coeffs)
	if err != nil {
		return nil, err
	}
	n := len(s.Planes)
	l := newLadder(s, 2*n, rs, transient)
	area := s.SurroundArea()
	colCap := columnHeatCap(s)
	for i, p := range s.Planes {
		var surrCap float64
		switch i {
		case 0:
			surrCap = area * (float64(p.ILDThickness*p.ILD.C) + float64(s.Via.Extension*p.Si.C))
		default:
			surrCap = area * (float64(p.ILDThickness*p.ILD.C) + float64(p.SiThickness*p.Si.C) + float64(p.BondThickness*p.Bond.C))
		}
		viaCap := float64(s.ColumnHeight(i) * colCap)
		r, q := planeResistances(s, m.Coeffs, i), p.TotalPower()
		if i < n-1 {
			l.rung(i+1, r.Surround, r.Metal, r.Liner, q, surrCap, viaCap)
		} else {
			top := l.next
			l.link(l.s, top, r.Surround, n, "surround")
			l.link(l.m, top, r.Metal+r.Liner, n, "fill+liner")
			l.q[top] = q
			l.mass(top, surrCap+viaCap, n, "plane")
			l.s = top
		}
		l.tops = append(l.tops, l.s)
	}
	return l.built()
}
