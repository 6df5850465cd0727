package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// randomBandedSystem returns a random diagonally dominant symmetric matrix
// of half-bandwidth b as a Band and as a dense Matrix, with a right-hand
// side.
func randomBandedSystem(rng *rand.Rand, n, b int) (*Band, *Matrix, []float64) {
	bd := NewBand(n, b, nil)
	dense := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-b); j < i; j++ {
			v := rng.Float64()*2 - 1
			bd.Add(i, j, v)
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(dense.At(i, j))
		}
		d := rowSum + 0.5 + rng.Float64()
		bd.Add(i, i, d)
		dense.Set(i, i, d)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return bd, dense, rhs
}

// solveBand factors m in place and returns its solution for rhs.
func solveBand(m *Band, rhs []float64) ([]float64, error) {
	if err := m.Factor(); err != nil {
		return nil, err
	}
	x := make([]float64, len(rhs))
	m.Solve(x, rhs)
	return x, nil
}

func TestBandedSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		b := rng.Intn(5)
		bd, dense, rhs := randomBandedSystem(rng, n, b)
		xb, err := solveBand(bd, rhs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		xd, err := Solve(dense, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xb {
			if math.Abs(xb[i]-xd[i]) > 1e-9*(1+math.Abs(xd[i])) {
				t.Fatalf("trial %d (n=%d b=%d): x[%d] = %g vs dense %g", trial, n, b, i, xb[i], xd[i])
			}
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for %s", what)
		}
	}()
	f()
}

func TestBandedOutsideBandPanics(t *testing.T) {
	bd := NewBand(5, 1, nil)
	mustPanic(t, "out-of-band Add", func() { bd.Add(0, 3, 1) })
	mustPanic(t, "out-of-band Add below the diagonal", func() { bd.Add(3, 0, 1) })
}

func TestBandedIndexPanics(t *testing.T) {
	bd := NewBand(3, 1, nil)
	mustPanic(t, "row past the end", func() { bd.Add(3, 2, 1) })
	mustPanic(t, "negative column", func() { bd.Add(0, -1, 1) })
}

// A singular band is not positive definite: its factorization fails with
// ErrNotSPD and names the row of the zero pivot.
func TestBandedSingular(t *testing.T) {
	bd := NewBand(2, 0, nil)
	bd.Add(0, 0, 1)
	// Row 1 left zero.
	if _, err := solveBand(bd, []float64{1, 1}); !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "row 1 ") {
		t.Fatalf("err = %v, want ErrNotSPD at row 1", err)
	}
	empty := NewBand(2, 1, nil)
	if _, err := solveBand(empty, []float64{1, 1}); !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "row 0 ") {
		t.Fatalf("zero matrix err = %v", err)
	}
}

func TestBandedDimensionChecks(t *testing.T) {
	mustPanic(t, "NewBand(0, 1)", func() { NewBand(0, 1, nil) })
	mustPanic(t, "NewBand(3, -1)", func() { NewBand(3, -1, nil) })
	mustPanic(t, "a buffer shorter than n·(b+1)", func() { NewBand(3, 1, make([]float64, 5)) })
	// Bandwidth clamps to n-1.
	wide := NewBand(3, 10, nil)
	if wide.N() != 3 || wide.Bandwidth() != 2 {
		t.Errorf("n, bandwidth = %d, %d", wide.N(), wide.Bandwidth())
	}
	// A band in an earlier band's buffer starts from zero.
	buf := []float64{9, 9, 9, 9, 9, 9, 9}
	again := NewBand(3, 1, buf)
	again.Add(0, 0, 2)
	again.Add(1, 1, 2)
	again.Add(2, 2, 2)
	x, err := solveBand(again, []float64{2, 4, 6})
	if err != nil || x[0] != 1 || x[1] != 2 || x[2] != 3 || buf[6] != 9 {
		t.Errorf("reused buffer: x = %v, err %v, buf %v", x, err, buf)
	}
}

func TestBandedResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := rng.Intn(4)
		bd, dense, rhs := randomBandedSystem(rng, n, b)
		x, err := solveBand(bd, rhs)
		if err != nil {
			return false
		}
		ax := dense.MulVec(x)
		for i := range ax {
			if math.Abs(ax[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBandedTridiagonalAgreesWithThomas(t *testing.T) {
	n := 30
	bd := NewBand(n, 1, nil)
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
		bd.Add(i, i, 4)
		if i > 0 {
			lower[i] = -1 - 0.2*float64(i%2)
			upper[i-1] = lower[i]
			bd.Add(i, i-1, lower[i])
		}
		rhs[i] = float64(i%5) - 2
	}
	xb, err := solveBand(bd, rhs)
	if err != nil {
		t.Fatal(err)
	}
	xt, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xb {
		if math.Abs(xb[i]-xt[i]) > 1e-10 {
			t.Fatalf("banded vs Thomas at %d: %g vs %g", i, xb[i], xt[i])
		}
	}
}

func TestSolveTridiag(t *testing.T) {
	// System:
	// [ 2 -1  0] [x0]   [1]
	// [-1  2 -1] [x1] = [0]
	// [ 0 -1  2] [x2]   [1]
	lower := []float64{0, -1, -1}
	diag := []float64{2, 2, 2}
	upper := []float64{-1, -1, 0}
	rhs := []float64{1, 0, 1}
	x, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveTridiagMatchesDense(t *testing.T) {
	n := 25
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		diag[i] = 4 + float64(i%3)
		a.Set(i, i, diag[i])
		if i > 0 {
			lower[i] = -1 - 0.1*float64(i%2)
			a.Set(i, i-1, lower[i])
		}
		if i < n-1 {
			upper[i] = -1.5
			a.Set(i, i+1, upper[i])
		}
		rhs[i] = float64(i) - 3
	}
	x, err := solveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := Solve(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xd[i]) > 1e-10 {
			t.Fatalf("mismatch at %d: %g vs %g", i, x[i], xd[i])
		}
	}
}

func TestSolveTridiagErrors(t *testing.T) {
	if _, err := solveTridiag(nil, nil, nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := solveTridiag([]float64{0}, []float64{1, 2}, []float64{0}, []float64{1}); err == nil {
		t.Error("inconsistent lengths accepted")
	}
	if _, err := solveTridiag([]float64{0}, []float64{0}, []float64{0}, []float64{1}); err == nil {
		t.Error("zero pivot accepted")
	}
}

// solveTridiag solves a tridiagonal system with the Thomas algorithm, the
// reference the band factor is checked against:
//
//	lower[i]·x[i-1] + diag[i]·x[i] + upper[i]·x[i+1] = rhs[i]
//
// lower[0] and upper[n-1] are ignored. The inputs are not modified; a zero
// pivot returns ErrSingular.
func solveTridiag(lower, diag, upper, rhs []float64) ([]float64, error) {
	n := len(diag)
	if n == 0 {
		return nil, fmt.Errorf("linalg: solveTridiag: empty system")
	}
	if len(lower) != n || len(upper) != n || len(rhs) != n {
		return nil, fmt.Errorf("linalg: solveTridiag: inconsistent lengths (lower=%d diag=%d upper=%d rhs=%d)",
			len(lower), n, len(upper), len(rhs))
	}
	cp := make([]float64, n) // modified upper coefficients
	dp := make([]float64, n) // modified rhs
	if diag[0] == 0 {
		return nil, fmt.Errorf("%w: zero pivot at row 0", ErrSingular)
	}
	cp[0] = upper[0] / diag[0]
	dp[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - lower[i]*cp[i-1]
		if den == 0 {
			return nil, fmt.Errorf("%w: zero pivot at row %d", ErrSingular, i)
		}
		cp[i] = upper[i] / den
		dp[i] = (rhs[i] - lower[i]*dp[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x, nil
}

// referenceFactor is the one-column-at-a-time LDLᵀ loop that Band.Factor
// blocks into independent chains: u[i,j] = A[i,j] − Σ_k u[i,k]·L[j,k] with
// k ascending, then L[i,j] = u[i,j]/D[j] and D[i] = A[i,i] − Σ u[i,j]·L[i,j].
// Factor must reproduce it bit for bit, its ErrNotSPD row included.
func referenceFactor(m *Band) error {
	b, w := m.b, m.b+1
	for i := 0; i < m.n; i++ {
		j0 := max(0, i-b)
		row := m.v[i*w+j0-i+b : (i+1)*w]
		for j := j0; j < i; j++ {
			lj := m.v[j*w+j0-j+b : (j+1)*w]
			s := row[j-j0]
			for k, u := range row[:j-j0] {
				s -= u * lj[k]
			}
			row[j-j0] = s
		}
		d := row[i-j0]
		for k, u := range row[:i-j0] {
			l := u / m.v[(j0+k)*w+b]
			d -= u * l
			row[k] = l
		}
		if !(d > 0) {
			return fmt.Errorf("linalg: band LDLᵀ pivot of row %d is %g: %w", i, d, ErrNotSPD)
		}
		row[i-j0] = d
	}
	return nil
}

// referenceSolve is the row-at-a-time forward sweep, scaling by D and
// backward sweep that Band.Solve runs as four chains at once.
func referenceSolve(m *Band, x, rhs []float64) {
	b, w := m.b, m.b+1
	for i := 0; i < m.n; i++ {
		j0 := max(0, i-b)
		s := rhs[i]
		for k, l := range m.v[i*w+j0-i+b : i*w+b] {
			s -= l * x[j0+k]
		}
		x[i] = s
	}
	for i := range m.n {
		x[i] /= m.v[i*w+b]
	}
	for i := m.n - 1; i >= 0; i-- {
		j0 := max(0, i-b)
		xi := x[i]
		for k, l := range m.v[i*w+j0-i+b : i*w+b] {
			x[j0+k] -= l * xi
		}
	}
}

// sameBits reports the first index where a and b differ in any bit, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// The blocked Factor and Solve reproduce the scalar loops bit for bit —
// L·D, the solution (also in place over its right-hand side) and the row
// an indefinite matrix fails at — for every bandwidth class the blocks
// split differently: below, at and above one block, just below, at and
// above the lanes' narrowest band, one wider than the lanes' stack scratch
// holds, and n on each residue mod 4, including n ≤ b and n around b+4, the
// first lane block. From b+4 rows on, row b+1 holds a −0 in its first
// column after a negative L[1,0]: a padded lane would subtract −0 from it
// and store +0, where the row loop keeps −0.
func TestBandedChainsMatchScalarBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, b := range []int{0, 1, 2, 3, 4, 5, 7, 8, laneMinBand - 1, laneMinBand, laneMinBand + 1, 27, 54, 81, 108, 144} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, b, b + 1, b + 2, b + 3, b + 4, b + 5, b + 6, b + 7, b + 8, 2*b + 4, 3*b + 5, 3*b + 6, 3*b + 7, 200, 201, 202, 203} {
			if n < 1 {
				continue
			}
			got, _, rhs := randomBandedSystem(rng, n, b)
			if b >= 1 && n >= b+4 {
				got.Row(1)[b-1] = -0.5
				got.Row(b + 1)[0] = math.Copysign(0, -1)
			}
			want := &Band{n: got.n, b: got.b, v: append([]float64(nil), got.v...)}
			if err := got.Factor(); err != nil {
				t.Fatalf("n=%d b=%d: %v", n, b, err)
			}
			if err := referenceFactor(want); err != nil {
				t.Fatalf("n=%d b=%d reference: %v", n, b, err)
			}
			if k := sameBits(got.v, want.v); k >= 0 {
				t.Fatalf("n=%d b=%d: factor differs at %d: %v vs %v", n, b, k, got.v[k], want.v[k])
			}
			x, xRef := make([]float64, n), make([]float64, n)
			got.Solve(x, rhs)
			referenceSolve(want, xRef, rhs)
			if k := sameBits(x, xRef); k >= 0 {
				t.Fatalf("n=%d b=%d: x differs at %d: %v vs %v", n, b, k, x[k], xRef[k])
			}
			inPlace := append([]float64(nil), rhs...)
			got.Solve(inPlace, inPlace)
			if k := sameBits(inPlace, xRef); k >= 0 {
				t.Fatalf("n=%d b=%d: in-place x differs at %d", n, b, k)
			}
		}
	}
}

// An indefinite band fails at the same row, with the same pivot, as the
// scalar loop, and leaves the same partial factor: before, inside and after
// the first block of rows, in each lane of the first lane block (rows
// b … b+3) and deep in the band.
func TestBandedChainsNotSPDRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range []int{1, 3, 4, 8, 27} {
		for _, bad := range []int{0, 5, 17, 40, b, b + 1, b + 2, b + 3, 57} {
			n := 60
			got, _, _ := randomBandedSystem(rng, n, b)
			// Weaken one diagonal so its pivot turns negative.
			got.v[bad*(got.b+1)+got.b] = -0.25
			want := &Band{n: got.n, b: got.b, v: append([]float64(nil), got.v...)}
			errGot, errWant := got.Factor(), referenceFactor(want)
			if !errors.Is(errGot, ErrNotSPD) || errWant == nil || errGot.Error() != errWant.Error() {
				t.Fatalf("b=%d bad=%d: err %v, scalar loop %v", b, bad, errGot, errWant)
			}
			if k := sameBits(got.v, want.v); k >= 0 {
				t.Fatalf("b=%d bad=%d: partial factor differs at %d", b, bad, k)
			}
		}
	}
}

// On an amd64 CPU that lists AVX2, a band as wide as the 2× mesh's factors
// every full block of four rows after its first b rows in lanes.
func TestBandedLanesRun(t *testing.T) {
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	onAVX2 := runtime.GOARCH == "amd64" && regexp.MustCompile(`(?m)^flags\s*:.* avx2( |$)`).Match(cpuinfo)
	const n, b = 203, 54
	m, _, _ := randomBandedSystem(rand.New(rand.NewSource(1)), n, b)
	i, err := m.factorLanes()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	if onAVX2 {
		want = n - (n-b)%4
	}
	if i != want {
		t.Fatalf("lane blocks factored up to row %d, want %d (AVX2 listed: %v)", i, want, onAVX2)
	}
}
