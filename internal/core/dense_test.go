package core

import (
	"fmt"
	"math"
)

// dense is a square matrix for the tests' reference solves: the ladders
// factor their networks with linalg.Band, so the tests check them against
// an elimination of their own that shares no code with it.
type dense [][]float64

func newDense(n int) dense {
	g := make(dense, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	return g
}

// Add adds v to the entry at (i, j).
func (g dense) Add(i, j int, v float64) { g[i][j] += v }

// solve returns x with g·x = b by Gaussian elimination with partial
// pivoting. It overwrites g and leaves b as it is.
func (g dense) solve(b []float64) ([]float64, error) {
	n := len(g)
	x := append([]float64(nil), b...)
	for k := range n {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(g[i][k]) > math.Abs(g[p][k]) {
				p = i
			}
		}
		if g[p][k] == 0 {
			return nil, fmt.Errorf("dense: singular at column %d", k)
		}
		g[k], g[p] = g[p], g[k]
		x[k], x[p] = x[p], x[k]
		for i := k + 1; i < n; i++ {
			if g[i][k] == 0 {
				// Nothing to eliminate: the update would subtract exact
				// zeros. Skipping it keeps a banded network's elimination
				// O(n²), which B(500)'s 2 101 nodes need under -race.
				continue
			}
			m := g[i][k] / g[k][k]
			for j := k; j < n; j++ {
				g[i][j] -= m * g[k][j]
			}
			x[i] -= m * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= g[i][j] * x[j]
		}
		x[i] /= g[i][i]
	}
	return x, nil
}
