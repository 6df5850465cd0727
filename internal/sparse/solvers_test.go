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
		x, st, err := SolveCG(a, b, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := a.Residual(x, b); r > 1e-8 {
			t.Fatalf("n=%d: residual %g (stats %+v)", n, r, st)
		}
	}
}

func TestSolveCGAllPreconditioners(t *testing.T) {
	a := laplacian1D(200)
	b := make([]float64, 200)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	for _, p := range []PrecondKind{PrecondNone, PrecondJacobi, PrecondSSOR, PrecondChebyshev} {
		x, st, err := SolveCG(a, b, Options{Precond: p})
		if err != nil {
			t.Fatalf("precond %v: %v", p, err)
		}
		if r := a.Residual(x, b); r > 1e-7 {
			t.Fatalf("precond %v: residual %g after %d iters", p, r, st.Iterations)
		}
	}
}

func TestSSORConvergesFasterThanNone(t *testing.T) {
	a := laplacian1D(400)
	b := make([]float64, 400)
	for i := range b {
		b[i] = 1
	}
	_, stNone, err := SolveCG(a, b, Options{Precond: PrecondNone})
	if err != nil {
		t.Fatal(err)
	}
	_, stSSOR, err := SolveCG(a, b, Options{Precond: PrecondSSOR})
	if err != nil {
		t.Fatal(err)
	}
	if stSSOR.Iterations >= stNone.Iterations {
		t.Fatalf("SSOR (%d iters) not faster than unpreconditioned (%d iters)",
			stSSOR.Iterations, stNone.Iterations)
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x, st, err := SolveCG(a, make([]float64, 10), Options{})
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

func TestSolveCGInitialGuess(t *testing.T) {
	a := laplacian1D(50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = 1
	}
	exact, _, err := SolveCG(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Starting from the exact solution should converge immediately.
	_, st, err := SolveCG(a, b, Options{X0: exact})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 1 {
		t.Errorf("warm start took %d iterations", st.Iterations)
	}
}

func TestSolveCGNotSPD(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	_, _, err := SolveCG(c.ToCSR(), []float64{0, 1}, Options{Precond: PrecondNone})
	if err == nil {
		t.Fatal("CG on indefinite matrix succeeded")
	}
}

func TestSolveCGDimensionErrors(t *testing.T) {
	a := laplacian1D(4)
	if _, _, err := SolveCG(a, []float64{1, 2}, Options{}); err == nil {
		t.Error("bad rhs length accepted")
	}
	if _, _, err := SolveCG(a, make([]float64, 4), Options{X0: []float64{1}}); err == nil {
		t.Error("bad x0 length accepted")
	}
	rect := NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, _, err := SolveCG(rect.ToCSR(), []float64{1, 2}, Options{}); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestSolveCGNotConverged(t *testing.T) {
	a := laplacian1D(300)
	b := make([]float64, 300)
	b[0] = 1
	_, _, err := SolveCG(a, b, Options{MaxIter: 2, Precond: PrecondNone})
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
		x1, _, err1 := SolveCG(a, b1, opt)
		x2, _, err2 := SolveCG(a, b2, opt)
		xs, _, err3 := SolveCG(a, sum, opt)
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
	if PrecondJacobi.String() != "jacobi" || PrecondNone.String() != "none" ||
		PrecondSSOR.String() != "ssor" || PrecondDefault.String() != "default" ||
		PrecondChebyshev.String() != "chebyshev" {
		t.Error("PrecondKind.String wrong")
	}
	if PrecondKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// Property: with a fixed preconditioner, the parallel CG solve is bit-
// identical to the sequential one for any worker count.
func TestSolveCGWorkersBitIdentical(t *testing.T) {
	const n = 900
	a := randomSPD(n, 31)
	b := randomVec(n, 32)
	for _, pc := range []PrecondKind{PrecondJacobi, PrecondChebyshev} {
		seq, _, err := SolveCG(a, b, Options{Precond: pc, Workers: 1})
		if err != nil {
			t.Fatalf("precond %v sequential: %v", pc, err)
		}
		for _, w := range []int{2, 4, 8} {
			par, st, err := SolveCG(a, b, Options{Precond: pc, Workers: w})
			if err != nil {
				t.Fatalf("precond %v workers=%d: %v", pc, w, err)
			}
			if st.Workers != w {
				t.Errorf("precond %v workers=%d: stats report %d workers", pc, w, st.Workers)
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("precond %v workers=%d: x[%d] = %x, want %x",
						pc, w, i, math.Float64bits(par[i]), math.Float64bits(seq[i]))
				}
			}
		}
	}
}

func TestSolveCGDefaultPrecondSelection(t *testing.T) {
	a := laplacian1D(100)
	b := make([]float64, 100)
	b[0] = 1
	_, seq, err := SolveCG(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Precond != PrecondJacobi {
		t.Errorf("sequential default precond %v, want jacobi", seq.Precond)
	}
	_, par, err := SolveCG(a, b, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Precond != PrecondChebyshev {
		t.Errorf("parallel default precond %v, want chebyshev", par.Precond)
	}
}

func TestSolveCGStatsWallAndWorkers(t *testing.T) {
	a := laplacian1D(300)
	b := make([]float64, 300)
	for i := range b {
		b[i] = 1
	}
	_, st, err := SolveCG(a, b, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Wall <= 0 {
		t.Errorf("wall time %v not populated", st.Wall)
	}
	if st.Workers != 2 {
		t.Errorf("workers = %d, want 2", st.Workers)
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
	x, st, err := SolveCGCtx(ctx, a, b, Options{Precond: PrecondNone})
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
