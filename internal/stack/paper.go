package stack

import (
	"fmt"

	"repro/internal/materials"
	"repro/internal/units"
)

// BlockConfig collects the knobs of the paper's standard experiment block
// (§IV): a square three-plane (by default) segment of a 3-D IC with one TTSV
// in the middle. All lengths in meters, power densities in W/m³.
type BlockConfig struct {
	// FootprintSide is the edge length of the square block (A0 = side²).
	FootprintSide float64
	// NumPlanes is the number of device planes (≥ 2).
	NumPlanes int
	// TSi1 is the first plane's (thick) substrate thickness.
	TSi1 float64
	// TSi is the substrate thickness of planes 2..N.
	TSi float64
	// TD is the ILD/BEOL thickness of every plane.
	TD float64
	// TB is the bonding layer thickness below planes 2..N.
	TB float64
	// TL is the via liner thickness.
	TL float64
	// R is the via radius (of the equivalent single via).
	R float64
	// Lext is the via extension into the first plane's substrate.
	Lext float64
	// ViaCount splits the via into a cluster of equal total metal area.
	ViaCount int
	// DevicePowerDensity is the volumetric device power density (W/m³)
	// applied over DeviceLayerThickness at the top of each substrate.
	DevicePowerDensity float64
	// ILDPowerDensity is the volumetric interconnect Joule heating (W/m³)
	// applied over each ILD layer.
	ILDPowerDensity float64
	// DeviceLayerThickness is the device layer extent.
	DeviceLayerThickness float64
	// SinkTemp is the heat-sink temperature (°C).
	SinkTemp float64
	// Materials; zero values default to the paper's Si/SiO2/polyimide/Cu.
	Si, ILD, Bond, Fill, Liner materials.Material
}

// DefaultBlock returns the paper's §IV baseline configuration: 100 µm ×
// 100 µm footprint, three planes, t_Si1 = 500 µm, l_ext = 1 µm, device
// power density 700 W/mm³ over a 1 µm device layer, interconnect heating
// 70 W/mm³, SiO2 ILD and liner, polyimide bond, copper fill, 27 °C sink.
// Figure-specific thicknesses (t_L, t_D, t_b, t_Si, r) default to the
// Fig. 4 values and are overridden per experiment.
func DefaultBlock() BlockConfig {
	return BlockConfig{
		FootprintSide:        units.UM(100),
		NumPlanes:            3,
		TSi1:                 units.UM(500),
		TSi:                  units.UM(45),
		TD:                   units.UM(4),
		TB:                   units.UM(1),
		TL:                   units.UM(0.5),
		R:                    units.UM(10),
		Lext:                 units.UM(1),
		ViaCount:             1,
		DevicePowerDensity:   units.WPerMM3(700),
		ILDPowerDensity:      units.WPerMM3(70),
		DeviceLayerThickness: units.UM(1),
		SinkTemp:             27,
		Si:                   materials.Silicon,
		ILD:                  materials.SiO2,
		Bond:                 materials.Polyimide,
		Fill:                 materials.Copper,
		Liner:                materials.SiO2,
	}
}

// maxPlanes bounds BlockConfig.NumPlanes far above any physical 3-D stack
// (the paper's go to 8) so that a corrupt or hostile configuration — e.g. a
// JSON file with NumPlanes in the billions — errors out instead of
// attempting the allocation.
const maxPlanes = 1024

// Build constructs and validates the stack described by the configuration.
func (c BlockConfig) Build() (*Stack, error) {
	if c.NumPlanes < 2 {
		return nil, fmt.Errorf("stack: block needs at least 2 planes, got %d", c.NumPlanes)
	}
	if c.NumPlanes > maxPlanes {
		return nil, fmt.Errorf("stack: block with %d planes exceeds the %d-plane limit", c.NumPlanes, maxPlanes)
	}
	a0 := c.FootprintSide * c.FootprintSide
	devQ := c.DevicePowerDensity * a0 * c.DeviceLayerThickness
	ildQ := c.ILDPowerDensity * a0 * c.TD
	planes := make([]Plane, c.NumPlanes)
	for i := range planes {
		tsi := c.TSi
		tb := c.TB
		if i == 0 {
			tsi = c.TSi1
			tb = 0
		}
		planes[i] = Plane{
			SiThickness:          tsi,
			ILDThickness:         c.TD,
			BondThickness:        tb,
			Si:                   c.Si,
			ILD:                  c.ILD,
			Bond:                 c.Bond,
			DevicePower:          devQ,
			ILDPower:             ildQ,
			DeviceLayerThickness: c.DeviceLayerThickness,
		}
	}
	s := &Stack{
		Footprint: a0,
		Planes:    planes,
		Via: TTSV{
			Radius:         c.R,
			LinerThickness: c.TL,
			Extension:      c.Lext,
			Fill:           c.Fill,
			Liner:          c.Liner,
			Count:          c.ViaCount,
		},
		SinkTemp: c.SinkTemp,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Fig4Block returns the Fig. 4 configuration for a given via radius. The
// paper adapts the upper-plane substrate thickness with the radius to
// respect the via aspect-ratio fabrication limit: t_Si2 = t_Si3 = 5 µm for
// r ≤ 5 µm and 45 µm for larger radii.
func Fig4Block(r float64) (*Stack, error) {
	c := DefaultBlock()
	c.R = r
	c.TL = units.UM(0.5)
	c.TD = units.UM(4)
	c.TB = units.UM(1)
	if r <= units.UM(5) {
		c.TSi = units.UM(5)
	} else {
		c.TSi = units.UM(45)
	}
	return c.Build()
}

// Fig5Block returns the Fig. 5 configuration for a given liner thickness:
// r = 5 µm, t_D = 7 µm, t_b = 1 µm, t_Si2 = t_Si3 = 45 µm.
func Fig5Block(tl float64) (*Stack, error) {
	c := DefaultBlock()
	c.R = units.UM(5)
	c.TL = tl
	c.TD = units.UM(7)
	c.TB = units.UM(1)
	c.TSi = units.UM(45)
	return c.Build()
}

// Fig6Block returns the Fig. 6 configuration for a given upper-plane
// substrate thickness: t_L = 1 µm, t_D = 7 µm, t_b = 1 µm, r = 8 µm.
func Fig6Block(tsi float64) (*Stack, error) {
	c := DefaultBlock()
	c.R = units.UM(8)
	c.TL = units.UM(1)
	c.TD = units.UM(7)
	c.TB = units.UM(1)
	c.TSi = tsi
	return c.Build()
}

// Fig7Block returns the Fig. 7 configuration for a given via cluster count:
// r_0 = 10 µm, t_L = 1 µm, t_D = 4 µm, t_b = 1 µm, t_Si2 = t_Si3 = 20 µm.
func Fig7Block(n int) (*Stack, error) {
	c := DefaultBlock()
	c.R = units.UM(10)
	c.TL = units.UM(1)
	c.TD = units.UM(4)
	c.TB = units.UM(1)
	c.TSi = units.UM(20)
	c.ViaCount = n
	return c.Build()
}
