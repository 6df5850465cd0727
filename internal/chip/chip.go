// Package chip embeds the TTSV models into full-chip thermal analysis, the
// paper's §IV-E workflow: a 3-D system whose TTSVs are distributed uniformly
// at a given area density is reduced, by symmetry, to one unit cell per via
// — a stack.Stack with the cell's share of the plane powers — which any of
// the core models (or the FVM reference) then solves. For a uniform array
// the unit cell's maximum temperature rise equals the system's.
package chip

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/materials"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/units"
)

// System describes a full 3-D chip with a uniformly distributed TTSV array.
type System struct {
	// Width and Depth are the chip footprint dimensions (m).
	Width, Depth float64
	// PlanePowers lists the total power of each plane (W), plane 1 (next to
	// the heat sink) first.
	PlanePowers []float64
	// TSi, TD, TB are the per-plane silicon, ILD and bond thicknesses (m);
	// the case study uses equal substrate thickness in all planes.
	TSi, TD, TB float64
	// TL, R, Lext describe each via: liner thickness, radius and the
	// extension into the first plane's substrate (m).
	TL, R, Lext float64
	// ViaDensity is the fraction of the chip area occupied by via metal
	// (0.005 in the paper).
	ViaDensity float64
	// DeviceLayerThickness spreads each plane's power over a thin layer for
	// the reference solver.
	DeviceLayerThickness float64
	// SinkTemp is the heat-sink temperature (°C).
	SinkTemp float64
	// Si, ILD, Bond, Fill, Liner are the materials.
	Si, ILD, Bond, Fill, Liner materials.Material
}

// DRAMuP returns the paper's 3-D DRAM-on-µP case study (§IV-E, Fig. 8):
// 10 mm × 10 mm footprint, three planes of 300 µm silicon, t_D = 20 µm,
// t_b = 10 µm, t_L = 1 µm, r = 30 µm, 0.5% TTSV density; the processor
// plane (adjacent to the heat sink) dissipates 70 W and each DRAM plane 7 W.
func DRAMuP() System {
	return System{
		Width:                units.MM(10),
		Depth:                units.MM(10),
		PlanePowers:          []float64{70, 7, 7},
		TSi:                  units.UM(300),
		TD:                   units.UM(20),
		TB:                   units.UM(10),
		TL:                   units.UM(1),
		R:                    units.UM(30),
		Lext:                 units.UM(1),
		ViaDensity:           0.005,
		DeviceLayerThickness: units.UM(1),
		SinkTemp:             27,
		Si:                   materials.Silicon,
		ILD:                  materials.SiO2,
		Bond:                 materials.Polyimide,
		Fill:                 materials.Copper,
		Liner:                materials.SiO2,
	}
}

// Area returns the chip footprint area (m²).
func (sys System) Area() float64 { return sys.Width * sys.Depth }

// ViaCount returns the number of TTSVs implied by the density.
func (sys System) ViaCount() int {
	per := math.Pi * sys.R * sys.R
	return int(math.Round(sys.Area() * sys.ViaDensity / per))
}

// CellArea returns the footprint of one via's symmetry unit cell (m²).
func (sys System) CellArea() float64 {
	return math.Pi * sys.R * sys.R / sys.ViaDensity
}

// Validate checks the system description.
func (sys System) Validate() error {
	if sys.Width <= 0 || sys.Depth <= 0 {
		return fmt.Errorf("chip: footprint %g × %g m must be positive", sys.Width, sys.Depth)
	}
	if len(sys.PlanePowers) < 2 {
		return fmt.Errorf("chip: need at least 2 planes, have %d", len(sys.PlanePowers))
	}
	for i, p := range sys.PlanePowers {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("chip: plane %d power %g W invalid", i+1, p)
		}
	}
	if sys.ViaDensity <= 0 || sys.ViaDensity >= 1 {
		return fmt.Errorf("chip: via density %g outside (0, 1)", sys.ViaDensity)
	}
	if sys.ViaCount() < 1 {
		return fmt.Errorf("chip: density %g with radius %s yields no vias", sys.ViaDensity, units.FormatMeters(sys.R))
	}
	return nil
}

// UnitCell builds the per-via symmetry cell as a stack the core models and
// the reference solver consume. Plane powers are scaled by the cell's share
// of the chip area.
func (sys System) UnitCell() (*stack.Stack, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cell := sys.CellArea()
	frac := cell / sys.Area()
	planes := make([]stack.Plane, len(sys.PlanePowers))
	for i, p := range sys.PlanePowers {
		tb := sys.TB
		if i == 0 {
			tb = 0
		}
		planes[i] = stack.Plane{
			SiThickness:          sys.TSi,
			ILDThickness:         sys.TD,
			BondThickness:        tb,
			Si:                   sys.Si,
			ILD:                  sys.ILD,
			Bond:                 sys.Bond,
			DevicePower:          p * frac,
			DeviceLayerThickness: sys.DeviceLayerThickness,
		}
	}
	s := &stack.Stack{
		Footprint: cell,
		Planes:    planes,
		Via: stack.TTSV{
			Radius:         sys.R,
			LinerThickness: sys.TL,
			Extension:      sys.Lext,
			Fill:           sys.Fill,
			Liner:          sys.Liner,
			Count:          1,
		},
		SinkTemp: sys.SinkTemp,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("chip: unit cell: %w", err)
	}
	return s, nil
}

// Analyze runs a core model on the system's unit cell. The returned MaxDT is
// the system's maximum temperature rise above the heat sink.
func (sys System) Analyze(m core.Model) (*core.Result, error) {
	obs.Default().Counter("chip.analyze.runs").Inc()
	cell, err := sys.UnitCell()
	if err != nil {
		return nil, err
	}
	return m.Solve(cell)
}
