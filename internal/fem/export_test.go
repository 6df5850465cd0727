package fem

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func solvedFig4(t *testing.T) *AxiSolution {
	t.Helper()
	s, err := fig4At(10)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveStackWith(context.Background(), nil, s, coarse())
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestWriteCSVShape(t *testing.T) {
	sol := solvedFig4(t)
	var buf bytes.Buffer
	if err := sol.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantRows := len(sol.RCenters)*len(sol.ZCenters) + 1
	if len(lines) != wantRows {
		t.Fatalf("CSV has %d lines, want %d", len(lines), wantRows)
	}
	if lines[0] != "r_m,z_m,dT_K" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestAxialProfile reads the field along the axis (the innermost cells):
// the temperature must rise monotonically with height, since heat flows
// down through the via column.
func TestAxialProfile(t *testing.T) {
	sol := solvedFig4(t)
	for j := 1; j < len(sol.T); j++ {
		if sol.T[j][0] < sol.T[j-1][0]-1e-9 {
			t.Fatalf("axial profile not monotone at %d: %g then %g", j, sol.T[j-1][0], sol.T[j][0])
		}
	}
}

// TestRadialProfile reads the top row of cells: the via region (small r)
// is cooler than the far bulk, because the via drains heat down.
func TestRadialProfile(t *testing.T) {
	sol := solvedFig4(t)
	top := sol.T[len(sol.T)-1]
	if top[0] >= top[len(top)-1] {
		t.Errorf("via not cooler than surroundings at the top: %g vs %g", top[0], top[len(top)-1])
	}
}

// TestProfilesOnAnalyticSlab checks that every row of a uniform slab's
// field is flat in r.
func TestProfilesOnAnalyticSlab(t *testing.T) {
	p := uniformAxiProblem(t, 6, 20, 5, 1e7)
	sol, err := SolveAxiWith(context.Background(), nil, p, sparse.Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sol.T {
		for i := 1; i < len(row); i++ {
			if math.Abs(row[i]-row[0]) > 1e-9*(1+math.Abs(row[0])) {
				t.Fatalf("radial profile of a uniform slab not flat: %v", row)
			}
		}
	}
}
