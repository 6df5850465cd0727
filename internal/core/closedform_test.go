package core

import (
	"fmt"
	"testing"

	"repro/internal/stack"
)

// SolveThreePlaneEquations solves Model A for a three-plane stack by a
// literal transcription of the paper's KCL equations (1)-(6) into a 5×5
// linear system in T1..T5 (T0 follows directly from eq. (6)).
//
// It is an intentionally independent implementation of the same model as
// ModelA.Solve, which stamps the network rung by rung, and is the tests'
// cross-check of it.
func SolveThreePlaneEquations(s *stack.Stack, c Coeffs) (*Result, error) {
	if len(s.Planes) != 3 {
		return nil, fmt.Errorf("core: the transcribed equations cover exactly 3 planes, stack has %d", len(s.Planes))
	}
	res, rs, err := Resistances(s, c)
	if err != nil {
		return nil, err
	}
	r1, r2, r3 := res[0].Surround, res[0].Metal, res[0].Liner
	r4, r5, r6 := res[1].Surround, res[1].Metal, res[1].Liner
	r7, r89 := res[2].Surround, res[2].Metal+res[2].Liner

	q1 := s.Planes[0].TotalPower()
	q2 := s.Planes[1].TotalPower()
	q3 := s.Planes[2].TotalPower()

	// Eq. (6): all heat drains through R_s.
	t0 := rs * (q1 + q2 + q3)

	// Unknown vector x = [T1, T2, T3, T4, T5].
	g := newDense(5)
	b := make([]float64, 5)

	// Eq. (4): q1 + (T3-T1)/R4 = (T1-T2)/R3 + (T1-T0)/R1
	g.Add(0, 0, 1/r4+1/r3+1/r1)
	g.Add(0, 2, -1/r4)
	g.Add(0, 1, -1/r3)
	b[0] = q1 + t0/r1

	// Eq. (5): (T1-T2)/R3 + (T4-T2)/R5 = (T2-T0)/R2
	g.Add(1, 1, 1/r3+1/r5+1/r2)
	g.Add(1, 0, -1/r3)
	g.Add(1, 3, -1/r5)
	b[1] = t0 / r2

	// Eq. (2): q2 + (T5-T3)/R7 = (T3-T4)/R6 + (T3-T1)/R4
	g.Add(2, 2, 1/r7+1/r6+1/r4)
	g.Add(2, 4, -1/r7)
	g.Add(2, 3, -1/r6)
	g.Add(2, 0, -1/r4)
	b[2] = q2

	// Eq. (3): (T3-T4)/R6 + (T5-T4)/(R8+R9) = (T4-T2)/R5
	g.Add(3, 3, 1/r6+1/r89+1/r5)
	g.Add(3, 2, -1/r6)
	g.Add(3, 4, -1/r89)
	g.Add(3, 1, -1/r5)
	b[3] = 0

	// Eq. (1): q3 = (T5-T3)/R7 + (T5-T4)/(R8+R9)
	g.Add(4, 4, 1/r7+1/r89)
	g.Add(4, 2, -1/r7)
	g.Add(4, 3, -1/r89)
	b[4] = q3

	x, err := g.solve(b)
	if err != nil {
		return nil, fmt.Errorf("core: three-plane equations: %w", err)
	}
	out := &Result{
		Model:    "A(eqs)",
		PlaneDT:  []float64{x[0], x[2], x[4]},
		BaseDT:   t0,
		Unknowns: 5,
	}
	out.MaxDT = t0
	for _, t := range x {
		if t > out.MaxDT {
			out.MaxDT = t
		}
	}
	return out, nil
}

// BenchmarkModelAClosedForm times the literal transcription of the paper's
// eqs. (1)-(6) as a dense 5×5 system; the root BenchmarkTable1ModelA times
// Model A through its banded ladder.
func BenchmarkModelAClosedForm(b *testing.B) {
	s := fig4Stack(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveThreePlaneEquations(s, PaperBlockCoeffs()); err != nil {
			b.Fatal(err)
		}
	}
}
