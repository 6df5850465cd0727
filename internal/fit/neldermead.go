// Package fit provides derivative-free minimization — a Nelder-Mead simplex
// and a coarse grid search — and uses them to calibrate Model A's fitting
// coefficients (k1, k2) against the finite-volume reference solver, exactly
// as the paper calibrates them against its FEM tool.
package fit

import (
	"fmt"
	"math"
	"sort"
)

// Options configures NelderMead. The zero value picks reasonable defaults.
type Options struct {
	// MaxEvals caps the number of objective evaluations (default 2000).
	MaxEvals int
	// Tol terminates when the simplex's objective spread falls below it
	// (default 1e-10).
	Tol float64
	// InitialStep sets the initial simplex size per coordinate (default
	// 10% of the start value, or 0.1 where the start is zero).
	InitialStep float64
}

func (o Options) maxEvals() int {
	if o.MaxEvals > 0 {
		return o.MaxEvals
	}
	return 2000
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return 1e-10
}

// NelderMead minimizes f starting from x0 and returns the best point found,
// its objective value and the number of evaluations. f may return +Inf to
// reject a point (e.g. outside a validity domain).
func NelderMead(f func([]float64) float64, x0 []float64, opt Options) ([]float64, float64, int, error) {
	n := len(x0)
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("fit: empty start point")
	}
	type vertex struct {
		x []float64
		v float64
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex.
	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	simplex[0] = vertex{x: base, v: eval(base)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		step := opt.InitialStep
		if step == 0 {
			step = 0.1 * math.Abs(x[i])
			if step == 0 {
				step = 0.1
			}
		}
		x[i] += step
		simplex[i+1] = vertex{x: x, v: eval(x)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)

	for evals < opt.maxEvals() {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].v < simplex[b].v })
		best, worst := simplex[0], simplex[n]
		if !math.IsInf(worst.v, 1) && worst.v-best.v < opt.tol()*(math.Abs(best.v)+opt.tol()) {
			// A small objective spread alone is not convergence: a simplex
			// symmetric around the minimum has zero spread but finite size.
			// Require the simplex itself to have collapsed too.
			size := 0.0
			for i := 1; i <= n; i++ {
				for j := range best.x {
					if d := math.Abs(simplex[i].x[j] - best.x[j]); d > size {
						size = d
					}
				}
			}
			scale := 0.0
			for _, xv := range best.x {
				if a := math.Abs(xv); a > scale {
					scale = a
				}
			}
			if size <= 1e-7*(1+scale) {
				break
			}
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := range centroid {
				centroid[j] += simplex[i].x[j] / float64(n)
			}
		}
		// Reflect.
		for j := range xr {
			xr[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		vr := eval(xr)
		switch {
		case vr < best.v:
			// Expand.
			for j := range xe {
				xe[j] = centroid[j] + gamma*(xr[j]-centroid[j])
			}
			if ve := eval(xe); ve < vr {
				simplex[n] = vertex{x: append([]float64(nil), xe...), v: ve}
			} else {
				simplex[n] = vertex{x: append([]float64(nil), xr...), v: vr}
			}
		case vr < simplex[n-1].v:
			simplex[n] = vertex{x: append([]float64(nil), xr...), v: vr}
		default:
			// Contract (inside).
			for j := range xc {
				xc[j] = centroid[j] + float64(rho*(worst.x[j]-centroid[j]))
			}
			if vc := eval(xc); vc < worst.v {
				simplex[n] = vertex{x: append([]float64(nil), xc...), v: vc}
			} else {
				// Shrink towards the best vertex.
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = best.x[j] + float64(sigma*(simplex[i].x[j]-best.x[j]))
					}
					simplex[i].v = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].v < simplex[b].v })
	if math.IsInf(simplex[0].v, 1) {
		return nil, 0, evals, fmt.Errorf("fit: Nelder-Mead found no feasible point")
	}
	return simplex[0].x, simplex[0].v, evals, nil
}

// GridSearch evaluates f on a regular steps^d grid over [lo, hi] and returns
// the best point. It is used to seed NelderMead with a robust start.
func GridSearch(f func([]float64) float64, lo, hi []float64, steps int) ([]float64, float64, error) {
	d := len(lo)
	if d == 0 || len(hi) != d {
		return nil, 0, fmt.Errorf("fit: GridSearch bounds mismatch (%d vs %d)", len(lo), len(hi))
	}
	if steps < 2 {
		return nil, 0, fmt.Errorf("fit: GridSearch needs steps >= 2, got %d", steps)
	}
	for i := range lo {
		if !(hi[i] > lo[i]) {
			return nil, 0, fmt.Errorf("fit: GridSearch bounds [%g, %g] invalid at dim %d", lo[i], hi[i], i)
		}
	}
	best := math.Inf(1)
	var bestX []float64
	x := make([]float64, d)
	idx := make([]int, d)
	for {
		for i := range x {
			x[i] = lo[i] + (hi[i]-lo[i])*float64(idx[i])/float64(steps-1)
		}
		if v := f(x); v < best {
			best = v
			bestX = append([]float64(nil), x...)
		}
		// Odometer increment.
		k := 0
		for k < d {
			idx[k]++
			if idx[k] < steps {
				break
			}
			idx[k] = 0
			k++
		}
		if k == d {
			break
		}
	}
	if bestX == nil {
		return nil, 0, fmt.Errorf("fit: GridSearch found no finite value")
	}
	return bestX, best, nil
}
