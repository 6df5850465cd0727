package fem

// Assembly straight into stencil coefficients.
//
// Both finite-volume discretizations in this package live on structured
// grids, so an assembled system is a sparse.Stencil — one diagonal array
// plus one off-diagonal array per axis — with its right-hand side. The
// emitters below write each face conductance g straight into those arrays:
// −g into the face's off-diagonal slot, +g into both cells' diagonals. No
// sparsity pattern, index array or slot map exists.
//
// The arrays' shape depends only on an asmKey — the cell counts and
// boundary kinds — never on the coefficient values, so a SolveContext keeps
// the assembly of its key and every later solve of a parameter sweep refills
// it in place. Every fill zeroes the accumulated arrays and walks the cells
// in the same fixed order, adding to each diagonal in the same sequence, so
// a refilled system is bit-identical to a fresh one: reuse changes where
// the arrays come from, never what is in them.

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// asmKey identifies an assembly's shape: everything the stencil layout and
// fill order depend on. The coefficient fields of a problem (K, Q, boundary
// temperatures) change the numbers, never the shape, so any two problems
// with equal keys share an assembly.
type asmKey struct {
	kind               byte // 'a' axisymmetric, 'c' Cartesian
	d0, d1, d2         int  // cells per axis (d2 is 0 for axisymmetric)
	bottom, top, outer BCKind
	aniso              bool // Cartesian: distinct vertical-conductivity buffer
}

// assembly holds an assembled system: the stencil operator, whose
// coefficient arrays the emitters write, the right-hand side, and the
// sampled conductivities — all refilled in place for each problem with the
// same key.
type assembly struct {
	op  *sparse.Stencil
	rhs []float64
	k   []float64 // cell conductivities, row-major like the unknowns
	kz  []float64 // Cartesian: vertical conductivities (aliases k when isotropic)
}

// newAssembly allocates the arrays for a grid with the given per-axis cell
// counts, fastest-varying first.
func newAssembly(key asmKey, dims []int) (*assembly, error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	asm := &assembly{
		rhs: make([]float64, n),
		k:   make([]float64, n),
	}
	var off [3][]float64 // off[d][i] = A[i, i+stride_d]; nil for axes of extent 1
	for d, nd := range dims {
		if nd > 1 {
			off[d] = make([]float64, n)
		}
	}
	asm.kz = asm.k
	if key.aniso {
		asm.kz = make([]float64, n)
	}
	op, err := sparse.NewStencilCoeffs(dims, make([]float64, n), off)
	if err != nil {
		return nil, fmt.Errorf("fem: internal: %w", err)
	}
	asm.op = op
	return asm, nil
}

// --- axisymmetric -----------------------------------------------------------

func axiKey(p *AxiProblem) asmKey {
	return asmKey{kind: 'a', d0: len(p.REdges) - 1, d1: len(p.ZEdges) - 1, bottom: p.Bottom.Kind, top: p.Top.Kind, outer: p.Outer.Kind}
}

// fillAxiK samples and validates the cell conductivities into k[j*nr+i].
func fillAxiK(p *AxiProblem, nr, nz int, rc, zc, k []float64) error {
	for j := 0; j < nz; j++ {
		for i := 0; i < nr; i++ {
			v := p.K(rc[i], zc[j])
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fem: conductivity %g at (r=%g, z=%g) must be positive and finite", v, rc[i], zc[j])
			}
			k[j*nr+i] = v
		}
	}
	return nil
}

// axiEmit walks the axisymmetric finite-volume discretization in a fixed
// cell order, writing every face conductance into asm's stencil arrays and
// the sources and boundary terms into its right-hand side. The diagonal and
// asm.rhs must be zero on entry.
func axiEmit(p *AxiProblem, nr, nz int, rc, zc []float64, asm *assembly) error {
	k, rhs := asm.k, asm.rhs
	diag, off := asm.op.Coeffs()
	offR, offZ := off[0], off[1]
	// faceG computes the conductance between two cell centers through a
	// shared face of area a, with center-to-face distances d1, d2 and
	// conductivities k1, k2 (series/harmonic combination).
	faceG := func(a, d1, k1, d2, k2 float64) float64 {
		return a / (d1/k1 + d2/k2)
	}
	for j := 0; j < nz; j++ {
		zs, zn := p.ZEdges[j], p.ZEdges[j+1]
		dz := zn - zs
		for i := 0; i < nr; i++ {
			rw, re := p.REdges[i], p.REdges[i+1]
			ring := math.Pi * (float64(re*re) - float64(rw*rw)) // axial face area
			row := j*nr + i
			kc := k[row]
			vol := ring * dz

			// Volumetric source. Negative densities (cooling) are legal;
			// non-finite values mean the problem definition is broken (e.g.
			// a source closure evaluated outside its layer table).
			if p.Q != nil {
				qv := p.Q(rc[i], zc[j])
				if math.IsNaN(qv) || math.IsInf(qv, 0) {
					return fmt.Errorf("fem: source density %g at (r=%g, z=%g) must be finite", qv, rc[i], zc[j])
				}
				rhs[row] += float64(qv * vol)
			}

			// East neighbor (radial outward).
			if i+1 < nr {
				a := 2 * math.Pi * re * dz
				g := faceG(a, re-rc[i], kc, rc[i+1]-re, k[row+1])
				diag[row] += g
				offR[row] = -g
				diag[row+1] += g
			} else if p.Outer.Kind == Dirichlet {
				a := 2 * math.Pi * re * dz
				g := a * kc / (re - rc[i])
				diag[row] += g
				rhs[row] += float64(g * p.Outer.Temp)
			}
			// West face: interior handled by the east sweep of cell i-1; the
			// axis (i == 0) is a natural symmetry boundary with zero area
			// contribution beyond r = 0, i.e. adiabatic.

			// North neighbor (axial upward).
			if j+1 < nz {
				g := faceG(ring, zn-zc[j], kc, zc[j+1]-zn, k[row+nr])
				diag[row] += g
				offZ[row] = -g
				diag[row+nr] += g
			} else if p.Top.Kind == Dirichlet {
				g := ring * kc / (zn - zc[j])
				diag[row] += g
				rhs[row] += float64(g * p.Top.Temp)
			}

			// South boundary.
			if j == 0 && p.Bottom.Kind == Dirichlet {
				g := ring * kc / (zc[j] - zs)
				diag[row] += g
				rhs[row] += float64(g * p.Bottom.Temp)
			}
		}
	}
	return nil
}

// assembleAxiWith discretizes the problem into sc's assembly, refilled when
// sc holds the problem's shape and new otherwise; the system is
// bit-identical either way.
func assembleAxiWith(sc *SolveContext, p *AxiProblem) (*axiSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nr := len(p.REdges) - 1
	nz := len(p.ZEdges) - 1
	rc := mesh.Centers(p.REdges)
	zc := mesh.Centers(p.ZEdges)
	asm, err := sc.assemble(axiKey(p), []int{nr, nz}, func(asm *assembly) error {
		if err := fillAxiK(p, nr, nz, rc, zc, asm.k); err != nil {
			return err
		}
		return axiEmit(p, nr, nz, rc, zc, asm)
	})
	if err != nil {
		return nil, err
	}
	// Unknown index = iz·nr + ir: the radial axis varies fastest.
	return &axiSystem{nr: nr, nz: nz, rc: rc, zc: zc, op: asm.op, rhs: asm.rhs}, nil
}

// --- Cartesian --------------------------------------------------------------

func cartKey(p *CartProblem) asmKey {
	return asmKey{kind: 'c', d0: len(p.XEdges) - 1, d1: len(p.YEdges) - 1, d2: len(p.ZEdges) - 1, bottom: p.Bottom.Kind, top: p.Top.Kind, aniso: p.KZ != nil}
}

// fillCartK samples and validates the cell conductivities (and, for an
// anisotropic medium, the vertical conductivities) into k and kz.
func fillCartK(p *CartProblem, nx, ny, nz int, xc, yc, zc, k, kz []float64) error {
	idx := func(i, j, l int) int { return (l*ny+j)*nx + i }
	for l := 0; l < nz; l++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				v := p.K(xc[i], yc[j], zc[l])
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("fem: conductivity %g at (%g, %g, %g)", v, xc[i], yc[j], zc[l])
				}
				k[idx(i, j, l)] = v
				if p.KZ != nil {
					vz := p.KZ(xc[i], yc[j], zc[l])
					if vz <= 0 || math.IsNaN(vz) || math.IsInf(vz, 0) {
						return fmt.Errorf("fem: vertical conductivity %g at (%g, %g, %g)", vz, xc[i], yc[j], zc[l])
					}
					kz[idx(i, j, l)] = vz
				}
			}
		}
	}
	return nil
}

// cartEmit walks the 3-D Cartesian finite-volume discretization in a fixed
// cell order; see axiEmit for the contract.
func cartEmit(p *CartProblem, nx, ny, nz int, xc, yc, zc []float64, asm *assembly) error {
	k, kz, rhs := asm.k, asm.kz, asm.rhs
	diag, off := asm.op.Coeffs()
	offX, offY, offZ := off[0], off[1], off[2]
	nxy := nx * ny
	for l := 0; l < nz; l++ {
		dz := p.ZEdges[l+1] - p.ZEdges[l]
		for j := 0; j < ny; j++ {
			dy := p.YEdges[j+1] - p.YEdges[j]
			for i := 0; i < nx; i++ {
				dx := p.XEdges[i+1] - p.XEdges[i]
				row := (l*ny+j)*nx + i
				kc := k[row]
				if p.Q != nil {
					qv := p.Q(xc[i], yc[j], zc[l])
					if math.IsNaN(qv) || math.IsInf(qv, 0) {
						return fmt.Errorf("fem: source density %g at (%g, %g, %g) must be finite", qv, xc[i], yc[j], zc[l])
					}
					rhs[row] += float64(qv * dx * dy * dz)
				}
				// +x neighbor.
				if i+1 < nx {
					a := dy * dz
					g := a / ((p.XEdges[i+1]-xc[i])/kc + (xc[i+1]-p.XEdges[i+1])/k[row+1])
					diag[row] += g
					offX[row] = -g
					diag[row+1] += g
				}
				// +y neighbor.
				if j+1 < ny {
					a := dx * dz
					g := a / ((p.YEdges[j+1]-yc[j])/kc + (yc[j+1]-p.YEdges[j+1])/k[row+nx])
					diag[row] += g
					offY[row] = -g
					diag[row+nx] += g
				}
				// +z neighbor (vertical conductivity).
				kcz := kz[row]
				if l+1 < nz {
					a := dx * dy
					g := a / ((p.ZEdges[l+1]-zc[l])/kcz + (zc[l+1]-p.ZEdges[l+1])/kz[row+nxy])
					diag[row] += g
					offZ[row] = -g
					diag[row+nxy] += g
				} else if p.Top.Kind == Dirichlet {
					g := dx * dy * kcz / (p.ZEdges[nz] - zc[l])
					diag[row] += g
					rhs[row] += float64(g * p.Top.Temp)
				}
				if l == 0 && p.Bottom.Kind == Dirichlet {
					g := dx * dy * kcz / (zc[0] - p.ZEdges[0])
					diag[row] += g
					rhs[row] += float64(g * p.Bottom.Temp)
				}
			}
		}
	}
	return nil
}

// assembleCartWith is assembleAxiWith for the 3-D Cartesian solver.
func assembleCartWith(sc *SolveContext, p *CartProblem) (*cartSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nx := len(p.XEdges) - 1
	ny := len(p.YEdges) - 1
	nz := len(p.ZEdges) - 1
	xc := mesh.Centers(p.XEdges)
	yc := mesh.Centers(p.YEdges)
	zc := mesh.Centers(p.ZEdges)
	asm, err := sc.assemble(cartKey(p), []int{nx, ny, nz}, func(asm *assembly) error {
		if err := fillCartK(p, nx, ny, nz, xc, yc, zc, asm.k, asm.kz); err != nil {
			return err
		}
		return cartEmit(p, nx, ny, nz, xc, yc, zc, asm)
	})
	if err != nil {
		return nil, err
	}
	// Unknown index = (iz·ny + iy)·nx + ix: x varies fastest, then y, z.
	return &cartSystem{nx: nx, ny: ny, nz: nz, xc: xc, yc: yc, zc: zc, op: asm.op, rhs: asm.rhs}, nil
}
