package core

import (
	"fmt"
	"math"

	"repro/internal/stack"
)

// TransientSpec configures a transient (step-power) simulation: the heat
// sources switch on at t = 0 with the stack at the heat-sink temperature,
// and the model's ladder integrates forward with the implicit Euler method.
type TransientSpec struct {
	// Dt is the time step (s).
	Dt float64
	// Steps is the number of steps; the simulated horizon is Dt·Steps.
	Steps int
}

// Validate checks the specification.
func (ts TransientSpec) Validate() error {
	if !(ts.Dt > 0) || math.IsInf(ts.Dt, 1) {
		return fmt.Errorf("core: transient step %g must be positive and finite", ts.Dt)
	}
	if ts.Steps < 1 {
		return fmt.Errorf("core: transient needs at least 1 step, got %d", ts.Steps)
	}
	return nil
}

// TransientResult is the time response of a TTSV model to a power step.
type TransientResult struct {
	// Model names the producing model.
	Model string
	// Times lists the simulated instants (s).
	Times []float64
	// TopDT is the top plane's temperature rise at each instant (K) — the
	// transient counterpart of Result.MaxDT.
	TopDT []float64
	// FinalDT is the last sample of TopDT.
	FinalDT float64
	// SettlingTime is the first time the top plane stays within 5% of its
	// final value; Settled is false when the horizon was too short.
	SettlingTime float64
	// Settled reports whether the 5% band was reached before the horizon.
	Settled bool
}

// SolveTransient simulates the stack's step response with Model A's network.
// Each node carries the thermal mass of the structure it lumps (plane bulk,
// via column, first-plane substrate), so the response exposes the stack's
// dominant thermal time constants — an extension beyond the paper's
// steady-state scope, built on the same networks.
func (m ModelA) SolveTransient(s *stack.Stack, spec TransientSpec) (*TransientResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	l, err := m.ladder(s, true)
	if err != nil {
		return nil, err
	}
	return l.transient(m.Name(), spec)
}

// SolveTransient simulates the stack's step response with Model B's
// distributed network; segment-resolved masses make it the more faithful
// transient model of the two.
func (m ModelB) SolveTransient(s *stack.Stack, spec TransientSpec) (*TransientResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	l, err := m.ladder(s, true)
	if err != nil {
		return nil, err
	}
	return l.transient(m.Name(), spec)
}
