package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stack"
	"repro/internal/units"
)

func fig5Stack(t testing.TB) *stack.Stack {
	t.Helper()
	s, err := stack.Fig5Block(units.UM(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSteadySolveAllocs checks that a steady solve takes its ladder's band
// and vectors from the pool and reads each plane's resistances without a
// table: after a warm-up, Model A allocates only its Result and the plane
// rises, Model B(500) also its name, far under one B(500) ladder's 67 KB
// of scratch.
func TestSteadySolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	s := fig5Stack(t)
	for _, c := range []struct {
		m   Model
		max float64
	}{{NewModelB(500), 3}, {ModelA{Coeffs: PaperBlockCoeffs()}, 2}} {
		if _, err := c.m.Solve(s); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { c.m.Solve(s) }); got > c.max {
			t.Errorf("%s: %v allocations per solve, want at most %v", c.m.Name(), got, c.max)
		}
	}
	m := NewModelB(500)
	const solves = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range solves {
		if _, err := m.Solve(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perSolve := (after.TotalAlloc - before.TotalAlloc) / solves; perSolve >= 1<<10 {
		t.Errorf("B(500) allocates %d B per solve, want under 1 KiB", perSolve)
	}
}

// exact renders a result with every float as its exact binary mantissa and
// exponent (fmt's %b), so equal renderings mean equal bits.
func exact(v any) string { return fmt.Sprintf("%b", v) }

// TestPooledLadderReuseIsBitIdentical interleaves solves of different sizes
// and kinds on different stacks, after poisoning the pool with a ladder
// full of NaN, sequentially and from four goroutines: every result must
// match the first solve of its case bit for bit, so no state of an earlier
// ladder leaks into a later one.
func TestPooledLadderReuseIsBitIdentical(t *testing.T) {
	fig4 := fig4Stack(t)
	fig5 := fig5Stack(t)
	fig7, err := stack.Fig7Block(4)
	if err != nil {
		t.Fatal(err)
	}
	a := ModelA{Coeffs: PaperBlockCoeffs()}
	spec := TransientSpec{Dt: 1e-5, Steps: 40}
	cases := []func() (any, error){
		func() (any, error) { return NewModelB(500).Solve(fig5) },
		func() (any, error) { return NewModelB(20).Solve(fig4) },
		func() (any, error) { return a.Solve(fig7) },
		func() (any, error) { return a.SolveTransient(fig4, spec) },
		func() (any, error) { return NewModelB(20).SolveTransient(fig5, spec) },
		func() (any, error) { return NewModelB(500).Solve(fig4) },
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		r, err := c()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = exact(r)
	}
	poison := pooledLadder(4*2101, true)
	for i := range poison.buf {
		poison.buf[i] = math.NaN()
	}
	poison.tops = append(poison.tops, 7, 7, 7)
	poison.s, poison.m, poison.next = 5, 6, 9
	poison.release()

	check := func(round, i int) error {
		r, err := cases[i]()
		if err != nil {
			return err
		}
		if got := exact(r); got != want[i] {
			return fmt.Errorf("round %d case %d: reused ladder gives\n%s\nwant\n%s", round, i, got, want[i])
		}
		return nil
	}
	for round := range 3 {
		for i := range cases {
			if err := check(round, (i+round)%len(cases)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 20 {
				for i := range cases {
					if err := check(round, (i+g+round)%len(cases)); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestOversizedLadderNotPooled checks the pool's cap: a released ladder
// whose scratch is over maxPooledBytes never comes back from the pool,
// while one at the cap does.
func TestOversizedLadderNotPooled(t *testing.T) {
	const atCap = maxPooledBytes / 8 / 4 // 4 values per steady node
	comesBack := func(nodes int) bool {
		// The race detector's pool drops a random quarter of its puts, so
		// a ladder that is kept is retried until it comes back.
		for range 20 {
			l := pooledLadder(nodes, false)
			l.release()
			if got := ladders.Get().(*ladder); got == l {
				return true
			}
		}
		return false
	}
	if !comesBack(atCap) {
		t.Fatalf("a ladder of %d nodes (%d B of scratch) was not pooled", atCap, 32*atCap)
	}
	if comesBack(atCap + 1) {
		t.Errorf("a ladder of %d nodes (%d B of scratch) came back from the pool", atCap+1, 32*(atCap+1))
	}
}
