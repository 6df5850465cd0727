package sparse

import "testing"

// BenchmarkStencilMatVec / BenchmarkCSRMatVec are the microbenchmark A/B
// behind the matrix-free operator: one y = A·x product on a 64×64×32
// structured grid (131k unknowns, 7-point stencil), evaluated from the
// per-direction coefficient arrays versus streaming a CSR holding the same entries.
// `make profile-stencil` captures CPU/alloc pprof of the stencil variant.
func benchMatVec(b *testing.B, op Operator) {
	n := op.Rows()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.SpanMulVec(x, y, 0, n)
	}
}

func benchGrid() *Stencil { return gridStencil([]int{64, 64, 32}, 5) }

func BenchmarkStencilMatVec(b *testing.B) { benchMatVec(b, benchGrid()) }

func BenchmarkCSRMatVec(b *testing.B) { benchMatVec(b, stencilCSR(benchGrid())) }
