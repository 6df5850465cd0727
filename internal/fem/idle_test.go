package fem

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/stack"
	"repro/internal/units"
)

// emptyIdle forgets every idle context, so a test that counts them starts
// from an empty list whatever ran before it.
func emptyIdle(t *testing.T) {
	t.Helper()
	idle.Lock()
	idle.list, idle.bytes = nil, 0
	idle.Unlock()
}

// asideIdle sets the idle list aside and returns the func that restores it,
// dropping whatever was listed in between.
func asideIdle() (restore func()) {
	idle.Lock()
	saved, savedBytes := idle.list, idle.bytes
	idle.list, idle.bytes = nil, 0
	idle.Unlock()
	return func() {
		idle.Lock()
		idle.list, idle.bytes = saved, savedBytes
		idle.Unlock()
	}
}

// idleKeys returns the keys of the idle list, oldest first, and checks that
// no slot past its length still holds state and that the list's byte total
// is its contexts' sizes, within maxIdleBytes.
func idleKeys(t *testing.T) []asmKey {
	t.Helper()
	idle.Lock()
	defer idle.Unlock()
	for i, e := range idle.list[len(idle.list):cap(idle.list)] {
		if !reflect.ValueOf(e).IsZero() {
			t.Errorf("vacated idle slot %d still holds a context", len(idle.list)+i)
		}
	}
	keys := make([]asmKey, len(idle.list))
	bytes := 0
	for i, e := range idle.list {
		keys[i] = e.key
		bytes += e.size()
	}
	if bytes != idle.bytes || bytes > maxIdleBytes {
		t.Errorf("idle list holds %d bytes of contexts, counts %d, bound %d", bytes, idle.bytes, maxIdleBytes)
	}
	return keys
}

func counter(name string) int64 { return obs.Default().Counter(name).Value() }

// freshSolve solves s cold: on a new SolveContext with the idle list set
// aside, so no state from any earlier solve, not even its storage, is
// reused. It is the baseline every reuse path must match bit for bit.
func freshSolve(t *testing.T, s *stack.Stack, res Resolution) *AxiSolution {
	t.Helper()
	defer asideIdle()()
	misses := counter("fem.assemble.pattern.misses")
	sol, err := SolveStackWith(context.Background(), NewSolveContext(), s, res)
	if err != nil {
		t.Fatal(err)
	}
	if counter("fem.assemble.pattern.misses") == misses {
		t.Fatal("a fresh solve refilled an assembly")
	}
	return sol
}

// freshMaxDT is freshSolve's maximum temperature rise.
func freshMaxDT(t *testing.T, s *stack.Stack, res Resolution) float64 {
	t.Helper()
	max, _, _ := freshSolve(t, s, res).MaxT()
	return max
}

// TestIdleKeepsShapesApart: two stacks with equal plane counts but thin and
// thick bond layers mesh to different assembly shapes (the bond spans fall
// on either side of mesh.Layers' 2 µm threshold). Both contexts stay idle side by side, a
// re-solve of each hits its own, and every solve equals a fresh one.
func TestIdleKeepsShapesApart(t *testing.T) {
	emptyIdle(t)
	thin, err := stack.DefaultBlock().Build() // t_b = 1 µm: thin bond spans
	if err != nil {
		t.Fatal(err)
	}
	cfg := stack.DefaultBlock()
	cfg.TB = units.UM(3) // thick bond spans
	thick, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(thin.Planes) != len(thick.Planes) {
		t.Fatalf("premise broken: %d vs %d planes", len(thin.Planes), len(thick.Planes))
	}
	m := ReferenceModel{}
	want := map[*stack.Stack]float64{thin: freshMaxDT(t, thin, m.Res), thick: freshMaxDT(t, thick, m.Res)}
	solve := func() {
		t.Helper()
		for _, s := range []*stack.Stack{thin, thick} {
			r, err := m.Solve(s)
			if err != nil {
				t.Fatal(err)
			}
			if r.MaxDT != want[s] {
				t.Fatalf("idle-list solve %v differs from fresh %v", r.MaxDT, want[s])
			}
		}
	}

	solve()
	keys := idleKeys(t)
	if len(keys) != 2 || keys[0] == keys[1] {
		t.Fatalf("idle keys after thin and thick solves = %v, want two distinct shapes", keys)
	}
	hits, misses := counter("fem.idle.hits"), counter("fem.idle.misses")
	solve()
	if got := counter("fem.idle.hits") - hits; got != 2 {
		t.Errorf("re-solves hit %d idle contexts, want 2", got)
	}
	if got := counter("fem.idle.misses") - misses; got != 0 {
		t.Errorf("re-solves missed %d times, want 0", got)
	}
	if got := idleKeys(t); len(got) != 2 {
		t.Errorf("idle list holds %d contexts after the re-solves, want 2", len(got))
	}

	// A taken context leaves the list, and its slot keeps no reference.
	sc := NewSolveContext()
	sc.take(keys[0])
	if got := idleKeys(t); len(got) != 1 || got[0] != keys[1] {
		t.Errorf("idle keys with the thin context taken = %v, want [%v]", got, keys[1])
	}
	sc.Close()
}

// TestIdleBounded: every solve through the idle list equals a fresh one,
// and the list holds its contexts' sizes within maxIdleBytes. Closing
// caller contexts a third of the bound each (a small assembly and a large
// factor buffer, no solve) shows the policy: each closed context is listed
// and emptied, a return to a full list drops the oldest, each eviction is
// counted, and a context larger than the bound is dropped at once.
func TestIdleBounded(t *testing.T) {
	t.Cleanup(asideIdle())
	// Each plane count meshes to its own shape.
	const shapes = 5
	for i := 0; i < shapes; i++ {
		cfg := stack.DefaultBlock()
		cfg.NumPlanes = 2 + i
		s, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReferenceModel{}.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshMaxDT(t, s, DefaultResolution()); r.MaxDT != want {
			t.Fatalf("shape %d: idle-list solve %v differs from fresh %v", i, r.MaxDT, want)
		}
	}
	if keys := idleKeys(t); len(keys) != shapes {
		t.Fatalf("after %d small shapes the idle list holds %d contexts, want all", shapes, len(keys))
	}

	emptyIdle(t)
	sized := func(i, bytes int) *SolveContext {
		key := asmKey{kind: 'a', d0: -1 - i}
		asm, err := newAssembly(key, []int{2, 2})
		if err != nil {
			t.Fatal(err)
		}
		sc := &SolveContext{key: key, asm: asm}
		sc.buf = make([]float64, bytes/8-sc.size()/8)
		return sc
	}
	evictions := counter("fem.idle.evictions")
	const n, fit = 7, 3
	var closed []asmKey
	for i := 0; i < n; i++ {
		sc := sized(i, maxIdleBytes/fit)
		closed = append(closed, sc.key)
		sc.Close()
		if sc.asm != nil || sc.buf != nil {
			t.Fatalf("close %d left the context holding its state", i)
		}
		keys := idleKeys(t)
		if want := closed[max(0, len(closed)-fit):]; fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("after %d closes the idle keys are %v, want the newest %v", i+1, keys, want)
		}
	}
	if got, want := counter("fem.idle.evictions")-evictions, int64(n-fit); got != want {
		t.Errorf("evictions = %d, want %d", got, want)
	}
	big := sized(n, maxIdleBytes+8)
	bigKey := big.key
	big.Close()
	if keys := idleKeys(t); len(keys) != fit || keys[fit-1] == bigKey || big.buf != nil {
		t.Errorf("a context over the bound was kept: idle keys %v", keys)
	}
	if got, want := counter("fem.idle.evictions")-evictions, int64(n-fit+1); got != want {
		t.Errorf("evictions = %d after the oversized close, want %d", got, want)
	}
}

// TestIdleConcurrentSolvesBitIdentical runs one shape's solves on several
// goroutines at once (each takes its own context, so the list may hold
// several of one shape) and checks every result against a fresh solve.
func TestIdleConcurrentSolvesBitIdentical(t *testing.T) {
	res := DefaultResolution()
	radii := []float64{4, 6, 8, 10, 12, 14, 16, 18}
	want := make([]float64, len(radii))
	for i, r := range radii {
		want[i] = freshMaxDT(t, fig4(t, r), res)
	}
	errs := make(chan error, len(radii))
	got := make([]float64, len(radii))
	for i, r := range radii {
		s := fig4(t, r)
		go func() {
			for k := 0; k < 3; k++ {
				out, err := ReferenceModel{Res: res}.SolveCtx(context.Background(), s)
				if err != nil {
					errs <- err
					return
				}
				if k > 0 && out.MaxDT != got[i] {
					t.Errorf("r=%g: repeat %d gave %v, first %v", r, k, out.MaxDT, got[i])
				}
				got[i] = out.MaxDT
			}
			errs <- nil
		}()
	}
	for range radii {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range radii {
		if got[i] != want[i] {
			t.Errorf("r=%g: concurrent idle-list solve %v differs from fresh %v", radii[i], got[i], want[i])
		}
	}
	idleKeys(t) // checks the byte bound
}

// TestNilContextUsesIdleList: a nil context means the idle list, so a
// second nil-context solve of one operator takes back the context the first
// returned and serves its factor again, bit for bit.
func TestNilContextUsesIdleList(t *testing.T) {
	emptyIdle(t)
	s := fig4(t, 10)
	var sols []*AxiSolution
	for k := 0; k < 2; k++ {
		hits := counter("fem.idle.hits")
		sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
		if err != nil {
			t.Fatal(err)
		}
		if got := counter("fem.idle.hits") - hits; got != int64(k) {
			t.Errorf("solve %d raised fem.idle.hits by %d, want %d", k, got, k)
		}
		if sol.Stats.Reused != (k == 1) {
			t.Errorf("solve %d: Stats.Reused = %v, want %v", k, sol.Stats.Reused, k == 1)
		}
		sols = append(sols, sol)
	}
	wantSameBits(t, "idle-list re-solve", flatAxiT(sols[1].T), flatAxiT(sols[0].T))
}

// TestSolveContextAlternatesShapes: one caller-owned context alternating
// Fig. 4 between the default mesh and twice it holds one shape at a time,
// so every solve hands back the other shape's state, takes the storage of
// its own from the idle list and factors afresh, and each is bit-identical
// to a cold solve.
func TestSolveContextAlternatesShapes(t *testing.T) {
	sc := NewSolveContext()
	defer sc.Close()
	s := fig4(t, 10)
	for i, f := range []int{1, 2, 1, 2} {
		res := DefaultResolution().Refine(f)
		want := freshSolve(t, s, res)
		got, err := SolveStackWith(context.Background(), sc, s, res)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Reused {
			t.Errorf("solve %d at %d×: served a factor of the other shape", i, f)
		}
		wantSameBits(t, fmt.Sprintf("solve %d at %d×", i, f), flatAxiT(got.T), flatAxiT(want.T))
	}
}

// TestClosedContextServesNilSolve: Close hands a caller's context to the
// idle list whole, so the next nil-context solve of the same operator takes
// it and serves its factor again, bit for bit.
func TestClosedContextServesNilSolve(t *testing.T) {
	t.Cleanup(asideIdle())
	s := fig4(t, 10)
	sc := NewSolveContext()
	first, err := SolveStackWith(context.Background(), sc, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	hits := counter("fem.idle.hits")
	sol, err := SolveStackWith(context.Background(), nil, s, DefaultResolution())
	if err != nil {
		t.Fatal(err)
	}
	if got := counter("fem.idle.hits") - hits; got != 1 {
		t.Errorf("the nil-context solve raised fem.idle.hits by %d, want 1", got)
	}
	if !sol.Stats.Reused {
		t.Error("the nil-context solve refactored the closed context's operator")
	}
	wantSameBits(t, "nil-context solve after Close", flatAxiT(sol.T), flatAxiT(first.T))
}

// TestNewContextTakesIdleStorage: a new caller context takes the storage of
// an idle context of its shape (its assembly is refilled), but not its
// factor or hierarchy: its first solve builds its own, and matches a cold
// solve bit for bit.
func TestNewContextTakesIdleStorage(t *testing.T) {
	t.Cleanup(asideIdle())
	s := fig4(t, 10)
	for _, p := range []sparse.PrecondKind{sparse.PrecondDefault, sparse.PrecondMG} {
		emptyIdle(t)
		res := DefaultResolution()
		res.Precond = p
		want := freshSolve(t, s, res)
		if _, err := SolveStackWith(context.Background(), nil, s, res); err != nil {
			t.Fatal(err)
		}
		hits, mgHits := counter("fem.assemble.pattern.hits"), counter("fem.mg.reuse.hits")
		sc := NewSolveContext()
		got, err := SolveStackWith(context.Background(), sc, s, res)
		sc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := counter("fem.assemble.pattern.hits") - hits; d != 1 {
			t.Errorf("%v: the new context's solve raised fem.assemble.pattern.hits by %d, want 1", p, d)
		}
		if got.Stats.Reused || counter("fem.mg.reuse.hits") != mgHits {
			t.Errorf("%v: the new context's first solve served the idle context's factor or hierarchy", p)
		}
		wantSameBits(t, fmt.Sprintf("%v: new context on idle storage", p), flatAxiT(got.T), flatAxiT(want.T))
	}
}
