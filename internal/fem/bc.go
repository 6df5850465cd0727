// Package fem implements the reference heat-conduction solver that stands in
// for the commercial FEM tool (COMSOL) the paper validates against. It is a
// finite-volume discretization of steady-state heat conduction
//
//	∇·(k ∇T) + q = 0
//
// on structured meshes: a 2-D axisymmetric (r, z) solver for the single-TTSV
// block — the square footprint is mapped to the equal-area circle — and a
// 3-D Cartesian solver used for cross-validation. Conductivities are
// harmonically averaged at cell faces so layered materials are handled
// exactly; the resulting SPD system is solved with preconditioned conjugate
// gradients.
package fem

// BCKind selects the boundary condition type on one boundary face.
type BCKind int

const (
	// Adiabatic is a zero-flux (homogeneous Neumann) boundary.
	Adiabatic BCKind = iota
	// Dirichlet fixes the boundary temperature.
	Dirichlet
)

// BC describes one boundary face's condition.
type BC struct {
	Kind BCKind
	// Temp is the fixed temperature for Dirichlet boundaries.
	Temp float64
}

// Fixed returns a Dirichlet boundary condition at temperature t.
func Fixed(t float64) BC { return BC{Kind: Dirichlet, Temp: t} }

// Insulated returns an adiabatic boundary condition.
func Insulated() BC { return BC{Kind: Adiabatic} }
