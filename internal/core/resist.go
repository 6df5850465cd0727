package core

import (
	"fmt"
	"math"

	"repro/internal/stack"
)

// PlaneResistances holds the three Model A network elements contributed by
// one plane (paper Fig. 2 and eqs. (7)-(15)).
type PlaneResistances struct {
	// Surround is the vertical thermal resistance of the plane bulk outside
	// the via: R1, R4, R7, ... (K/W).
	Surround float64
	// Metal is the vertical thermal resistance of the via fill column
	// through the plane: R2, R5, R8, ... (K/W).
	Metal float64
	// Liner is the lateral (radial) thermal resistance of the via liner
	// within the plane: R3, R6, R9, ... (K/W). For a via cluster the value
	// follows the equal-metal-area update of eq. (22).
	Liner float64
}

// Resistances evaluates the paper's resistance formulas for every plane of
// the stack plus the first-plane substrate resistance R_s (eq. (16)).
// The slice is indexed like s.Planes (0 = plane adjacent to the sink).
func Resistances(s *stack.Stack, c Coeffs) ([]PlaneResistances, float64, error) {
	rs, err := substrateResistance(s, c)
	if err != nil {
		return nil, 0, err
	}
	out := make([]PlaneResistances, len(s.Planes))
	for i := range out {
		out[i] = planeResistances(s, c, i)
	}
	return out, rs, nil
}

// substrateResistance validates s and c and returns the first plane's
// substrate resistance R_s (eq. (16)).
func substrateResistance(s *stack.Stack, c Coeffs) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	// Eq. (16): the first plane's bulk substrate below the via tip.
	p0, v := s.Planes[0], s.Via
	rs := (p0.SiThickness - v.Extension) / (c.K1 * p0.Si.K * s.Footprint)
	if rs <= 0 {
		return 0, fmt.Errorf("core: non-positive substrate resistance R_s = %g (t_Si1 = %g, l_ext = %g)",
			rs, p0.SiThickness, v.Extension)
	}
	return rs, nil
}

// planeResistances evaluates plane i's three elements of a validated stack.
// The models read each plane's elements as they stamp it, without building
// Resistances' slice.
func planeResistances(s *stack.Stack, c Coeffs, i int) PlaneResistances {
	v, p := s.Via, s.Planes[i]
	kSi, kD, kb := p.Si.K, p.ILD.K, p.Bond.K
	// Vertical path lengths weighted by conductivity (Σ t/k).
	var vertical float64
	switch i {
	case 0:
		// Eq. (7): ILD plus the via extension's worth of silicon.
		vertical = p.ILDThickness/kD + v.Extension/kSi
	default:
		// Eqs. (10) and (13): ILD, substrate and bond below.
		vertical = p.ILDThickness/kD + p.SiThickness/kSi + p.BondThickness/kb
	}
	h := s.ColumnHeight(i)
	k1 := c.K1
	surround := vertical / (k1 * s.SurroundArea())
	if i == 0 {
		// The case-study spreading coefficient c_{1,2} applies to the
		// first plane, whose thick substrate sits directly on the sink.
		surround /= c.C1
	}
	// Eqs. (8), (11), (14): the fill column. The cluster transform keeps
	// the total metal area constant, so Metal is independent of n.
	metal := h / (k1 * v.Fill.K * v.MetalArea())
	// Eqs. (9), (12), (15) generalized by eq. (22) to n split vias:
	// R_L = ln((r_n + t_L)/r_n) / (2 n π k2 kL H).
	rn, n := v.SplitRadius(), float64(v.EffectiveCount())
	liner := math.Log((rn+v.LinerThickness)/rn) / (2 * n * math.Pi * c.K2 * v.Liner.K * h)
	return PlaneResistances{Surround: surround, Metal: metal, Liner: liner}
}
