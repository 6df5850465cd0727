// Package materials provides a small thermal-materials database for 3-D IC
// structures: silicon substrates, inter-layer dielectrics, bonding adhesives
// and via fill/liner materials.
//
// The package stores thermal conductivity in W/(m·K). Conductivity may be a
// constant or a linear function of temperature; the analytical TTSV models of
// the paper are linear and use the constant evaluated at the reference
// temperature, while the iterative solvers can optionally re-evaluate k(T).
package materials

import (
	"fmt"
	"sort"
)

// Material describes one solid used in a 3-D IC stack.
type Material struct {
	// Name is a short identifier, e.g. "Si" or "SiO2".
	Name string
	// K is the thermal conductivity at the reference temperature, W/(m·K).
	K float64
	// C is the volumetric heat capacity, J/(m³·K). It only matters for
	// transient analysis; steady-state solves ignore it.
	C float64
	// TempCoeff is the optional linear temperature coefficient of the
	// conductivity: k(T) = K * (1 + TempCoeff*(T - RefTemp)). Zero means the
	// conductivity is treated as constant.
	TempCoeff float64
	// RefTemp is the temperature at which K is specified, in °C.
	RefTemp float64
}

// Conductivity returns the thermal conductivity at temperature t (°C).
// With a zero TempCoeff this is simply m.K.
func (m Material) Conductivity(t float64) float64 {
	if m.TempCoeff == 0 {
		return m.K
	}
	k := m.K * (1 + float64(m.TempCoeff*(t-m.RefTemp)))
	if k <= 0 {
		// A linearised fit can go negative far outside its validity range;
		// clamp to a small positive value to keep solvers well-posed.
		return m.K * 1e-3
	}
	return k
}

// Validate reports an error for physically meaningless materials.
func (m Material) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("materials: material has empty name")
	}
	if m.K <= 0 {
		return fmt.Errorf("materials: %s: conductivity %g W/(m·K) must be positive", m.Name, m.K)
	}
	return nil
}

// Stock materials with the conductivities used in the paper (§IV) and common
// handbook values for the rest. All at ~27 °C.
var (
	// Silicon is the bulk substrate material. The paper does not state its
	// conductivity; 130 W/(m·K) is the standard value for doped bulk silicon
	// used by its references ([1], [9]). The heat capacity is density ×
	// specific heat (2330 kg/m³ × 700 J/kg·K).
	Silicon = Material{Name: "Si", K: 130, C: 1.63e6, RefTemp: 27}
	// SiO2 is the ILD and TTSV liner dielectric, k = 1.4 W/(m·K) (§IV).
	SiO2 = Material{Name: "SiO2", K: 1.4, C: 1.64e6, RefTemp: 27}
	// Polyimide is the bonding layer adhesive, k = 0.15 W/(m·K) (§IV).
	Polyimide = Material{Name: "polyimide", K: 0.15, C: 1.55e6, RefTemp: 27}
	// Copper is the TTSV fill, k = 400 W/(m·K) (§IV).
	Copper = Material{Name: "Cu", K: 400, C: 3.45e6, RefTemp: 27}
	// Tungsten is an alternative via fill for technology exploration.
	Tungsten = Material{Name: "W", K: 173, C: 2.55e6, RefTemp: 27}
	// BCB is an alternative polymer bonding adhesive.
	BCB = Material{Name: "BCB", K: 0.29, C: 1.2e6, RefTemp: 27}
	// Aluminum is an alternative interconnect/fill metal.
	Aluminum = Material{Name: "Al", K: 237, C: 2.42e6, RefTemp: 27}
)

// stock is the built-in lookup table.
var stock = map[string]Material{
	"Si":        Silicon,
	"SiO2":      SiO2,
	"polyimide": Polyimide,
	"Cu":        Copper,
	"W":         Tungsten,
	"BCB":       BCB,
	"Al":        Aluminum,
}

// Lookup returns the stock material with the given name.
func Lookup(name string) (Material, error) {
	m, ok := stock[name]
	if !ok {
		return Material{}, fmt.Errorf("materials: unknown material %q (known: %v)", name, Names())
	}
	return m, nil
}

// Names lists the stock material names in sorted order.
func Names() []string {
	out := make([]string, 0, len(stock))
	for n := range stock {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WithConductivity returns a copy of m with the conductivity replaced. It is
// used, e.g., to fold interconnect metal into an effective ILD conductivity
// as the paper suggests ("k_D can be adapted to include the effect of the
// metal within the ILD layer").
func (m Material) WithConductivity(k float64) Material {
	m.K = k
	return m
}
