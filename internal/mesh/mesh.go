// Package mesh builds the structured, boundary-aligned grids the
// finite-volume reference solver runs on. Grids are described by their cell
// edge coordinates along each axis; all generators guarantee strictly
// increasing edges that hit material interfaces exactly.
package mesh

import (
	"fmt"
	"math"
)

// Uniform subdivides [lo, hi] into n equal cells and returns the n+1 edges.
func Uniform(lo, hi float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("mesh: Uniform needs n >= 1, got %d", n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("mesh: Uniform needs hi > lo, got [%g, %g]", lo, hi)
	}
	e := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		e[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	e[n] = hi
	return e, nil
}

// Interval is one segment of a composite 1-D mesh.
type Interval struct {
	// Hi is the upper edge of the interval; the lower edge is the previous
	// interval's Hi (or the line's origin).
	Hi float64
	// Cells is the number of cells in the interval.
	Cells int
	// Ratio is the width ratio of successive cells (> 1 grows them towards
	// Hi, < 1 shrinks them); 0 or 1 means uniform.
	Ratio float64
}

// Line builds a composite 1-D mesh starting at origin through the given
// intervals. Edges at interval boundaries are shared, so material interfaces
// always coincide with cell faces. The edges are allocated once and each
// interval is appended in place.
func Line(origin float64, intervals []Interval) ([]float64, error) {
	if len(intervals) == 0 {
		return nil, fmt.Errorf("mesh: Line needs at least one interval")
	}
	n := 1
	for _, iv := range intervals {
		n += max(iv.Cells, 0)
	}
	edges := append(make([]float64, 0, n), origin)
	for i, iv := range intervals {
		var err error
		if edges, err = appendGraded(edges, iv); err != nil {
			return nil, fmt.Errorf("mesh: Line interval %d: %w", i, err)
		}
	}
	return edges, nil
}

// appendGraded appends to edges the iv.Cells edges above iv's lower edge,
// the last of edges: cells whose widths form a geometric progression with
// iv.Ratio between successive cells, or equal cells at ratio 1 (or 0). The
// last edge is iv.Hi exactly.
func appendGraded(edges []float64, iv Interval) ([]float64, error) {
	lo, hi, n, ratio := edges[len(edges)-1], iv.Hi, iv.Cells, iv.Ratio
	if ratio == 0 {
		ratio = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("needs cells >= 1, got %d", n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("needs hi > lo, got [%g, %g]", lo, hi)
	}
	if ratio <= 0 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("ratio %g must be positive and finite", ratio)
	}
	if ratio == 1 {
		for i := 1; i < n; i++ {
			edges = append(edges, lo+(hi-lo)*float64(i)/float64(n))
		}
		return append(edges, hi), nil
	}
	// First width w satisfies w·(ratio^n - 1)/(ratio - 1) = hi - lo.
	width := (hi - lo) * (ratio - 1) / (math.Pow(ratio, float64(n)) - 1)
	e := lo
	for i := 1; i < n; i++ {
		e += width
		edges = append(edges, e)
		width *= ratio
	}
	return append(edges, hi), nil
}

// Centers returns the midpoints of the cells defined by edges.
func Centers(edges []float64) []float64 {
	if len(edges) < 2 {
		return nil
	}
	c := make([]float64, len(edges)-1)
	for i := range c {
		c[i] = 0.5 * (edges[i] + edges[i+1])
	}
	return c
}

// Validate checks that edges are strictly increasing and at least one cell
// exists.
func Validate(edges []float64) error {
	if len(edges) < 2 {
		return fmt.Errorf("mesh: need at least 2 edges, have %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return fmt.Errorf("mesh: edges not strictly increasing at %d: %g then %g", i, edges[i-1], edges[i])
		}
	}
	return nil
}

// thinLayer is the layer thickness below which Layers meshes a layer with
// its thin cell count: bond, device and liner-scale layers would otherwise
// force needle cells. The threshold decides the cell count of every layer,
// so stacks on either side of it mesh to different shapes even at equal
// layer counts.
const thinLayer = 2e-6

// bulkGrade is the per-cell width ratio of the thick bottom layer at the
// base refinement, finer towards its top (the via tip and the heat path).
const bulkGrade = 0.75

// Layers is the z mesh of a layered stack, bottom-up: tops[i] is the top of
// layer i, and layer 0, the thick bulk, starts at 0. The bulk gets bulk
// cells graded finer towards its top by Regrade(0.75, refine); any other
// layer gets perLayer cells, or thin cells when it is thinner than 2 µm.
// refine is how many times finer than the base mesh the counts are, so a
// refined mesh keeps the base bulk's grading envelope.
func Layers(tops []float64, perLayer, thin, bulk, refine int) ([]float64, error) {
	intervals := make([]Interval, len(tops))
	lo := 0.0
	for i, hi := range tops {
		iv := Interval{Hi: hi, Cells: perLayer, Ratio: 1}
		switch {
		case i == 0:
			iv.Cells, iv.Ratio = bulk, Regrade(bulkGrade, refine)
		case hi-lo < thinLayer:
			iv.Cells = thin
		}
		intervals[i] = iv
		lo = hi
	}
	return Line(0, intervals)
}

// Regrade adapts a per-cell grading ratio to a mesh refine times finer than
// the one it was written for: ratio^(1/refine) over refine× the cells spans
// the same first-to-last width ratio, so refinement subdivides a graded
// interval instead of grading it more steeply (which would make the width
// spread, and the conditioning of the linear system, grow exponentially).
// refine <= 1 leaves the ratio as written.
func Regrade(ratio float64, refine int) float64 {
	if refine > 1 && ratio != 1 {
		return math.Pow(ratio, 1/float64(refine))
	}
	return ratio
}
