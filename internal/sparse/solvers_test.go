package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// laplacian1D builds the standard SPD tridiagonal [-1 2 -1] matrix of size n.
func laplacian1D(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

func TestSolveCGLaplacian(t *testing.T) {
	for _, n := range []int{1, 2, 5, 50, 500} {
		a := laplacian1D(n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		x, st, err := SolveCGCtx(context.Background(), a, b, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := a.Residual(x, b); r > 1e-8 {
			t.Fatalf("n=%d: residual %g (stats %+v)", n, r, st)
		}
	}
}

// jacobiCycle is a stand-in multigrid hierarchy for the PrecondMG hook: one
// "cycle" is a diagonal (Jacobi) scaling, a fixed SPD operator as the
// MGSolver contract requires.
type jacobiCycle struct{ d []float64 }

func newJacobiCycle(a interface {
	Rows() int
	Each(fn func(i, j int, v float64))
}) jacobiCycle {
	d := make([]float64, a.Rows())
	a.Each(func(i, j int, v float64) {
		if i == j {
			d[i] = v
		}
	})
	return jacobiCycle{d: d}
}

func (j jacobiCycle) Cycle(z, r []float64) {
	for i := range z {
		z[i] = r[i] / j.d[i]
	}
}
func (j jacobiCycle) Levels() int { return 1 }
func (j jacobiCycle) Size() int   { return len(j.d) }

func TestSolveCGAllPreconditioners(t *testing.T) {
	a := laplacian1D(200)
	b := make([]float64, 200)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	for _, p := range []PrecondKind{PrecondDefault, PrecondMG} {
		x, st, err := SolveCGCtx(context.Background(), a, b, Options{Precond: p, MG: newJacobiCycle(a)})
		if err != nil {
			t.Fatalf("precond %v: %v", p, err)
		}
		if r := a.Residual(x, b); r > 1e-7 {
			t.Fatalf("precond %v: residual %g after %d iters", p, r, st.Iterations)
		}
		if st.Precond != p {
			t.Errorf("asked for %v, ran %v", p, st.Precond)
		}
	}
	if _, _, err := SolveCGCtx(context.Background(), a, b, Options{Precond: PrecondMG}); err == nil {
		t.Error("PrecondMG without a hierarchy accepted")
	}
	if _, _, err := SolveCGCtx(context.Background(), a, b, Options{Precond: PrecondMG, MG: newJacobiCycle(laplacian1D(10))}); err == nil {
		t.Error("PrecondMG with a hierarchy of the wrong size accepted")
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x, st, err := SolveCGCtx(context.Background(), a, make([]float64, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d for zero rhs", st.Iterations)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestSolveCGNotSPD(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	_, _, err := SolveCGCtx(context.Background(), c.ToCSR(), []float64{0, 1}, Options{})
	if err == nil {
		t.Fatal("CG on indefinite matrix succeeded")
	}
}

func TestSolveCGDimensionErrors(t *testing.T) {
	a := laplacian1D(4)
	if _, _, err := SolveCGCtx(context.Background(), a, []float64{1, 2}, Options{}); err == nil {
		t.Error("bad rhs length accepted")
	}
	rect := NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, _, err := SolveCGCtx(context.Background(), rect.ToCSR(), []float64{1, 2}, Options{}); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestSolveCGNotConverged(t *testing.T) {
	a := laplacian1D(300)
	b := make([]float64, 300)
	b[0] = 1
	_, _, err := SolveCGCtx(context.Background(), a, b, Options{MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

// Property: CG solutions are linear in the right-hand side.
func TestCGLinearityProperty(t *testing.T) {
	a := laplacian1D(40)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b1 := make([]float64, 40)
		b2 := make([]float64, 40)
		sum := make([]float64, 40)
		for i := range b1 {
			b1[i] = rng.NormFloat64()
			b2[i] = rng.NormFloat64()
			sum[i] = b1[i] + b2[i]
		}
		opt := Options{Tol: 1e-12}
		x1, _, err1 := SolveCGCtx(context.Background(), a, b1, opt)
		x2, _, err2 := SolveCGCtx(context.Background(), a, b2, opt)
		xs, _, err3 := SolveCGCtx(context.Background(), a, sum, opt)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range xs {
			if math.Abs(xs[i]-(x1[i]+x2[i])) > 1e-6*(1+math.Abs(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPrecondKindString(t *testing.T) {
	if PrecondDefault.String() != "default" || PrecondMG.String() != "multigrid" {
		t.Error("PrecondKind.String wrong")
	}
	if PrecondKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestSolveCGDefaultPrecondSelection(t *testing.T) {
	a := laplacian1D(100)
	b := make([]float64, 100)
	b[0] = 1
	_, st, err := SolveCGCtx(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Precond != PrecondDefault || st.Levels != 0 {
		t.Errorf("default precond %v (%d levels), want plain CG", st.Precond, st.Levels)
	}
}

func TestSolveCGStatsWall(t *testing.T) {
	a := laplacian1D(300)
	b := make([]float64, 300)
	for i := range b {
		b[i] = 1
	}
	_, st, err := SolveCGCtx(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Wall <= 0 {
		t.Errorf("wall time %v not populated", st.Wall)
	}
	if s := st.String(); s == "" {
		t.Error("stats String is empty")
	}
}

func TestSolveCGCtxPreCancelled(t *testing.T) {
	a := laplacian1D(200)
	b := make([]float64, 200)
	b[0] = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, st, err := SolveCGCtx(ctx, a, b, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Iterations != 0 {
		t.Errorf("pre-cancelled solve ran %d iterations", st.Iterations)
	}
	if x == nil {
		t.Error("cancelled solve did not return the iterate so far")
	}
}

// countdownCtx reports cancellation only after Done has been polled n times,
// cancelling a solve mid-flight at a deterministic iteration.
type countdownCtx struct {
	context.Context
	remaining int
	done      chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.remaining > 0 {
		c.remaining--
		return nil // blocks forever: not cancelled yet
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func TestSolveCGCtxCancelsMidFlight(t *testing.T) {
	a := laplacian1D(500)
	b := make([]float64, 500)
	b[0] = 1
	const after = 5
	ctx := newCountdownCtx(after)
	x, st, err := SolveCGCtx(ctx, a, b, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Iterations != after {
		t.Errorf("cancelled after %d iterations, want %d", st.Iterations, after)
	}
	if st.Residual <= 0 {
		t.Errorf("cancelled stats missing residual: %+v", st)
	}
	if x == nil {
		t.Error("cancelled solve did not return the iterate so far")
	}
}
