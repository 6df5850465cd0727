// Package stack describes the physical structure the paper analyzes: an
// N-plane 3-D integrated circuit segment with a single thermal
// through-silicon via (TTSV) — or a cluster of TTSVs of equal total metal
// area — running through it towards a heat sink below the first plane.
//
// Layer order, top to bottom (paper Fig. 1/Fig. 3):
//
//	ILD_N / Si_N / bond / ILD_{N-1} / Si_{N-1} / bond / … / ILD_1 / Si_1 (thick) / heat sink
//
// Plane 1 is adjacent to the heat sink and has a much thicker substrate; the
// TTSV extends a short distance l_ext into it. The bond layer recorded on a
// plane is the one directly below that plane's silicon (plane 1 has none).
package stack

import (
	"fmt"
	"math"

	"repro/internal/materials"
	"repro/internal/units"
)

// Plane is one device plane of the 3-D stack.
type Plane struct {
	// SiThickness is the silicon substrate thickness t_Si (m).
	SiThickness float64
	// ILDThickness is the inter-layer-dielectric/BEOL thickness t_D (m).
	ILDThickness float64
	// BondThickness is the thickness t_b of the bonding layer below this
	// plane's silicon (m). Must be zero for plane 1 and positive otherwise.
	BondThickness float64
	// Si, ILD and Bond are the layer materials.
	Si, ILD, Bond materials.Material
	// DevicePower is the heat generated by the active devices of this plane
	// (W), physically located at the top surface of the silicon substrate.
	DevicePower float64
	// ILDPower is the Joule heat generated by the interconnects, distributed
	// through the ILD layer (W).
	ILDPower float64
	// DeviceLayerThickness is the thickness of the thin volumetric layer the
	// reference (FVM) solver spreads DevicePower over (m). The analytical
	// models use the lumped powers only.
	DeviceLayerThickness float64
}

// TotalPower returns the plane's total heat input q_i (W).
func (p Plane) TotalPower() float64 { return p.DevicePower + p.ILDPower }

// Height returns the geometric height of the plane (ILD + Si + bond below).
func (p Plane) Height() float64 { return p.ILDThickness + p.SiThickness + p.BondThickness }

// TTSV describes the thermal via (or equal-metal-area cluster of vias).
type TTSV struct {
	// Radius is the via radius r (m). For a cluster, this is the radius r_0
	// of the equivalent single via before division; the individual via
	// radius is Radius/sqrt(Count).
	Radius float64
	// LinerThickness is the dielectric liner thickness t_L (m).
	LinerThickness float64
	// Extension is l_ext, how far the via extends into the first plane's
	// substrate (m).
	Extension float64
	// Fill is the via fill material (copper in the paper).
	Fill materials.Material
	// Liner is the liner material (SiO2 in the paper).
	Liner materials.Material
	// Count is the number of vias the equivalent via is divided into while
	// keeping the total metal area constant (paper §IV-D). Zero is treated
	// as one.
	Count int
}

// EffectiveCount returns Count, mapping 0 to 1.
func (v TTSV) EffectiveCount() int {
	if v.Count <= 0 {
		return 1
	}
	return v.Count
}

// SplitRadius returns the radius r_n = r_0/sqrt(n) of each via in the
// cluster.
func (v TTSV) SplitRadius() float64 {
	return v.Radius / math.Sqrt(float64(v.EffectiveCount()))
}

// MetalArea returns the total via fill cross-section π·r², which the cluster
// transform keeps invariant.
func (v TTSV) MetalArea() float64 { return float64(math.Pi * v.Radius * v.Radius) }

// Stack is a complete description of the analyzed 3-D circuit segment.
type Stack struct {
	// Footprint is the block area A_0 (m²).
	Footprint float64
	// Planes lists the device planes; Planes[0] is plane 1 (adjacent to the
	// heat sink), Planes[len-1] is the top plane.
	Planes []Plane
	// Via is the thermal via running through all planes.
	Via TTSV
	// SinkTemp is the fixed temperature of the bottom surface (°C). The
	// models report temperature rise above it, so it only offsets absolute
	// temperatures.
	SinkTemp float64
}

// SurroundArea returns A = A_0 − π(r+t_L)², the footprint left to the
// surroundings of the (equivalent single) via — paper eq. (7).
func (s *Stack) SurroundArea() float64 {
	rr := s.Via.Radius + s.Via.LinerThickness
	return s.Footprint - float64(math.Pi*rr*rr)
}

// TotalPower returns Σ q_i over all planes (W).
func (s *Stack) TotalPower() float64 {
	var q float64
	for _, p := range s.Planes {
		q += p.TotalPower()
	}
	return q
}

// ColumnHeight returns the via column height the paper's resistance formulas
// use for plane i (0-based): t_D + l_ext for plane 1 (eq. (8)),
// t_D + t_Si + t_b for middle planes (eq. (11)), and t_Si + t_b for the top
// plane (eq. (14)).
func (s *Stack) ColumnHeight(i int) float64 {
	p := s.Planes[i]
	switch {
	case i == 0:
		return p.ILDThickness + s.Via.Extension
	case i == len(s.Planes)-1:
		return p.SiThickness + p.BondThickness
	default:
		return p.ILDThickness + p.SiThickness + p.BondThickness
	}
}

// AspectRatio returns the via depth / diameter ratio of one (possibly split)
// via, using the full structural depth from the top plane's ILD bottom...
// more precisely the total via length through all planes including the
// extension into plane 1.
func (s *Stack) AspectRatio() float64 {
	length := s.Via.Extension
	for i, p := range s.Planes {
		length += p.ILDThickness + p.BondThickness
		if i > 0 {
			length += p.SiThickness
		}
	}
	return length / (2 * s.Via.SplitRadius())
}

// MaxAspectRatio is the fabrication limit the paper cites (§IV-A,
// "typically lower than ten"). Validate reports ratios above it.
const MaxAspectRatio = 10.0

// Validate checks the stack for physical consistency. It returns an error
// for inconsistencies that make the models meaningless; the aspect-ratio
// fabrication limit is checked by ValidateFabrication separately because the
// paper itself sweeps slightly beyond it.
func (s *Stack) Validate() error {
	if s.Footprint <= 0 {
		return fmt.Errorf("stack: footprint %g m² must be positive", s.Footprint)
	}
	if len(s.Planes) < 2 {
		return fmt.Errorf("stack: need at least 2 planes, have %d", len(s.Planes))
	}
	for i, p := range s.Planes {
		no := i + 1
		if p.SiThickness <= 0 {
			return fmt.Errorf("stack: plane %d: silicon thickness %g must be positive", no, p.SiThickness)
		}
		if p.ILDThickness <= 0 {
			return fmt.Errorf("stack: plane %d: ILD thickness %g must be positive", no, p.ILDThickness)
		}
		if i == 0 && p.BondThickness != 0 {
			return fmt.Errorf("stack: plane 1 must not have a bond layer below it (got %g)", p.BondThickness)
		}
		if i > 0 && p.BondThickness <= 0 {
			return fmt.Errorf("stack: plane %d: bond thickness %g must be positive", no, p.BondThickness)
		}
		for _, m := range []materials.Material{p.Si, p.ILD} {
			if err := m.Validate(); err != nil {
				return fmt.Errorf("stack: plane %d: %w", no, err)
			}
		}
		if i > 0 {
			if err := p.Bond.Validate(); err != nil {
				return fmt.Errorf("stack: plane %d: %w", no, err)
			}
		}
		if p.DevicePower < 0 || p.ILDPower < 0 {
			return fmt.Errorf("stack: plane %d: negative power (device %g W, ILD %g W)", no, p.DevicePower, p.ILDPower)
		}
		if p.DeviceLayerThickness < 0 || p.DeviceLayerThickness > p.SiThickness {
			return fmt.Errorf("stack: plane %d: device layer thickness %g outside [0, t_Si]", no, p.DeviceLayerThickness)
		}
	}
	v := s.Via
	if v.Radius <= 0 {
		return fmt.Errorf("stack: via radius %g must be positive", v.Radius)
	}
	if v.LinerThickness <= 0 {
		return fmt.Errorf("stack: via liner thickness %g must be positive", v.LinerThickness)
	}
	if v.Extension < 0 || v.Extension >= s.Planes[0].SiThickness {
		return fmt.Errorf("stack: via extension %g outside [0, t_Si1)", v.Extension)
	}
	if v.Count < 0 {
		return fmt.Errorf("stack: via count %d must be non-negative", v.Count)
	}
	if err := v.Fill.Validate(); err != nil {
		return fmt.Errorf("stack: via fill: %w", err)
	}
	if err := v.Liner.Validate(); err != nil {
		return fmt.Errorf("stack: via liner: %w", err)
	}
	// The via (equivalent single and split cluster) must fit the footprint.
	if s.SurroundArea() <= 0 {
		return fmt.Errorf("stack: via with liner (r+t_L = %s) does not fit footprint A0 = %g m²",
			units.FormatMeters(v.Radius+v.LinerThickness), s.Footprint)
	}
	n := float64(v.EffectiveCount())
	rn := v.SplitRadius()
	if occupied := n * math.Pi * (rn + v.LinerThickness) * (rn + v.LinerThickness); occupied >= s.Footprint {
		return fmt.Errorf("stack: %d split vias occupy %g m², exceeding footprint %g m²",
			v.EffectiveCount(), occupied, s.Footprint)
	}
	return nil
}

// ValidateFabrication reports whether the via aspect ratio exceeds the
// typical fabrication limit; this is a soft constraint (the paper adapts
// substrate thickness to keep it, §IV-A).
func (s *Stack) ValidateFabrication() error {
	if ar := s.AspectRatio(); ar > MaxAspectRatio {
		return fmt.Errorf("stack: via aspect ratio %.1f exceeds typical fabrication limit %.0f", ar, MaxAspectRatio)
	}
	return nil
}

// WithViaCount returns a copy of the stack whose via is split into n vias of
// equal total metal area (paper §IV-D). The geometry is otherwise shared.
func (s *Stack) WithViaCount(n int) *Stack {
	out := *s
	out.Planes = append([]Plane(nil), s.Planes...)
	out.Via.Count = n
	return &out
}

// Clone returns a deep copy of the stack.
func (s *Stack) Clone() *Stack {
	out := *s
	out.Planes = append([]Plane(nil), s.Planes...)
	return &out
}
