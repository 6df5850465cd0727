package mg

import (
	"math"
	"testing"
)

// referenceLineSolve is the line-at-a-time walk that lineAxis.solve runs
// in lockstep along axis 1: per line, forward substitution, scaling of the
// last cell and the backward sweep, at the line's stride.
func referenceLineSolve(ax *lineAxis, r, x []float64) {
	l, invc := ax.l, ax.invc
	for t, lines := 0, len(r)/ax.nd[ax.axis]; t < lines; t++ {
		i, s, length := lineBase(ax.nd, ax.axis, t)
		x[i] = r[i]
		for k := 1; k < length; k++ {
			i += s
			x[i] = r[i] - l[i]*x[i-s]
		}
		x[i] *= invc[i]
		for k := length - 2; k >= 0; k-- {
			i -= s
			x[i] = x[i]*invc[i] - l[i+s]*x[i+s]
		}
	}
}

// Every axis's line solve matches the line-at-a-time walk bit for bit, on
// 2-D and 3-D grids with lines of length 2 and up.
func TestLineSolveMatchesLineWalk(t *testing.T) {
	for k, nd := range [][3]int{{5, 2, 1}, {7, 9, 1}, {1, 6, 1}, {4, 3, 5}, {3, 8, 2}, {9, 4, 3}} {
		n := nd[0] * nd[1] * nd[2]
		r, l, invc := make([]float64, n), make([]float64, n), make([]float64, n)
		fillRand(r, uint64(3*k+1))
		fillRand(l, uint64(3*k+2))
		fillRand(invc, uint64(3*k+3))
		for axis := range 3 {
			if nd[axis] < 2 {
				continue
			}
			ax := &lineAxis{axis: axis, nd: nd, l: l, invc: invc}
			got, want := make([]float64, n), make([]float64, n)
			ax.solve(r, got)
			referenceLineSolve(ax, r, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("grid %v axis %d: x[%d] = %v, line walk %v", nd, axis, i, got[i], want[i])
				}
			}
		}
	}
}
