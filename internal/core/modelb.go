package core

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/stack"
)

// ModelB is the paper's distributed TTSV model (§III, Fig. 3). Each plane is
// sliced into π-segments — n_D in the ILD sub-layer and n_S in the silicon
// sub-layer — each carrying a vertical surroundings resistor, a vertical via
// fill resistor R_M/n and a lateral liner resistor n·R_L (eq. (21)). No
// fitting coefficients are used: the distributed lateral coupling itself
// captures the multi-dimensional heat flow that Model A's k1/k2 absorb.
//
// The resulting 2·n_A node system (eq. (19)) is one banded ladder solved
// directly; accuracy rises with the segment count at increasing solve cost
// (paper Table I).
type ModelB struct {
	// Plane1Segments is the segment count of the first plane, whose via
	// column only spans the ILD plus the extension l_ext (its thick
	// substrate is the lumped R_s).
	Plane1Segments int
	// PlaneSegments is the per-plane segment count n_j of every other plane,
	// split between ILD and silicon proportionally to thickness.
	PlaneSegments int
}

// NewModelB returns a Model B instance with the paper's segment pairing:
// for "Model B (n)" the paper uses n segments in planes 2..N and n/10
// (at least 1) in the first plane — (1,1), (2,20), (10,100), (50,500).
func NewModelB(n int) ModelB {
	n1 := n / 10
	if n1 < 1 {
		n1 = 1
	}
	return ModelB{Plane1Segments: n1, PlaneSegments: n}
}

// Name implements Model. It builds "B(n)" in a stack array, so the string
// is its only allocation: every solve names its result.
func (m ModelB) Name() string {
	var b [24]byte
	name := strconv.AppendInt(append(b[:0], "B("...), int64(m.PlaneSegments), 10)
	return string(append(name, ')'))
}

// segmentation describes how one plane is sliced.
type segmentation struct {
	nILD, nSi int
}

// splitSegments divides n segments between the ILD and silicon sub-layers of
// a plane proportionally to their thickness, guaranteeing at least one ILD
// segment (heat is injected there, eq. (20)) and, when n > 1, at least one
// silicon segment.
func splitSegments(n int, tILD, tSi float64) segmentation {
	if n <= 1 {
		return segmentation{nILD: 1, nSi: 0}
	}
	nILD := int(math.Round(float64(n) * tILD / (tILD + tSi)))
	if nILD < 1 {
		nILD = 1
	}
	if nILD > n-1 {
		nILD = n - 1
	}
	return segmentation{nILD: nILD, nSi: n - nILD}
}

// Solve implements Model.
func (m ModelB) Solve(s *stack.Stack) (*Result, error) {
	l, err := m.ladder(s, false)
	if err != nil {
		return nil, err
	}
	return l.steady(m.Name())
}

// ladder assembles the distributed π-segment network (Fig. 3): every
// segment is one rung, with the fill and liner values of eq. (21) and the
// plane's heat spread over its ILD segments (eq. (20)). A transient ladder
// carries each segment's thermal mass.
func (m ModelB) ladder(s *stack.Stack, transient bool) (*ladder, error) {
	if m.Plane1Segments < 1 || m.PlaneSegments < 1 {
		return nil, fmt.Errorf("core: model B needs positive segment counts, got (%d, %d)",
			m.Plane1Segments, m.PlaneSegments)
	}
	// Element values follow the Model A formulas with k1 = k2 = 1 (§III).
	rs, err := substrateResistance(s, UnitCoeffs())
	if err != nil {
		return nil, err
	}
	segments := m.Plane1Segments + (len(s.Planes)-1)*m.PlaneSegments
	l := newLadder(s, 2*segments+1, rs, transient)
	area := s.SurroundArea()
	colCap := columnHeatCap(s)

	for i, p := range s.Planes {
		var seg segmentation
		if i == 0 {
			seg = segmentation{nILD: m.Plane1Segments, nSi: 0}
		} else {
			seg = splitSegments(m.PlaneSegments, p.ILDThickness, p.SiThickness)
		}
		nj := seg.nILD + seg.nSi
		r := planeResistances(s, UnitCoeffs(), i)
		metalSeg := r.Metal / float64(nj) // R_M/n_j, eq. (21)
		linerSeg := r.Liner * float64(nj) // n_j·R_L, eq. (21)

		// Vertical surroundings resistances of the sub-layers (no k1).
		var rILDseg, rSiSeg, rBond float64
		if i == 0 {
			// The first plane's column is ILD + l_ext; slice it uniformly.
			full := (p.ILDThickness/p.ILD.K + s.Via.Extension/p.Si.K) / area
			rILDseg = full / float64(seg.nILD)
		} else {
			rILDseg = p.ILDThickness / (p.ILD.K * area * float64(seg.nILD))
			if seg.nSi > 0 {
				rSiSeg = p.SiThickness / (p.Si.K * area * float64(seg.nSi))
			}
			rBond = p.BondThickness / (p.Bond.K * area)
			if seg.nSi == 0 {
				// Single-segment plane: fold silicon and bond into the one
				// ILD segment so the vertical path is complete.
				rILDseg += (p.SiThickness/p.Si.K + p.BondThickness/p.Bond.K) / area
				rBond = 0
			}
		}

		qPerILD := p.TotalPower() / float64(seg.nILD) // eq. (20)

		// Per-segment thermal masses (used only by transient analysis).
		metalCap := s.ColumnHeight(i) / float64(nj) * colCap
		var ildSurrCap, siSurrCap, bondCap float64
		if i == 0 {
			ildSurrCap = area * (float64(p.ILDThickness*p.ILD.C) + float64(s.Via.Extension*p.Si.C)) / float64(seg.nILD)
		} else {
			ildSurrCap = area * p.ILDThickness * p.ILD.C / float64(seg.nILD)
			bondCap = area * p.BondThickness * p.Bond.C
			if seg.nSi > 0 {
				siSurrCap = area * p.SiThickness * p.Si.C / float64(seg.nSi)
			} else {
				// Single-segment plane: silicon and bond mass fold into the
				// one ILD segment like their resistances do.
				ildSurrCap += float64(area * (float64(p.SiThickness*p.Si.C) + float64(p.BondThickness*p.Bond.C)))
				bondCap = 0
			}
		}

		// Build segments bottom-to-top: bond (folded into the first silicon
		// segment), silicon, then ILD (paper Fig. 3).
		for k := 0; k < seg.nSi; k++ {
			vertical, surrCap := rSiSeg, siSurrCap
			if k == 0 {
				vertical += rBond // first silicon segment carries the bond
				surrCap += bondCap
			}
			l.rung(i+1, vertical, metalSeg, linerSeg, 0, surrCap, metalCap)
		}
		for k := 0; k < seg.nILD; k++ {
			l.rung(i+1, rILDseg, metalSeg, linerSeg, qPerILD, ildSurrCap, metalCap)
		}
		l.tops = append(l.tops, l.s)
	}
	return l.built()
}
