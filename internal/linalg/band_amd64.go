package linalg

// avx2 reports whether the CPU runs AVX2 and the OS saves its registers,
// read once by CPUID and XGETBV.
var avx2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// laneBlock factors rows i … i+3 of a band of half-bandwidth b ≥ 3 whose
// rows before i are factored, one row per lane, and reports whether it
// wrote them. rows points at row i's first value, v[i·(b+1)]; l at the
// diagonal of row i−b, v[(i−b)·(b+1)+b], from which row i−b+p's entry in
// column i−b+q lies at l[p·b+q] and its pivot at l[p·(b+1)]; s is scratch
// of 4·(b+3) values.
//
// It gathers columns i−b … i+2 of the four rows into s, four values per
// column, row i+t's column i−b+p from rows[p+t·b] in lane t, with zeros in
// the t columns before the row's band. The dots follow: column p of every
// lane takes the lanes' u in columns q < p times the finished row's L, four
// columns at a time and then their own 4×4 triangle, after the b mod 4
// columns left over. Then the divisions, L = u/D and d −= u·L, ascending in
// p, fused with the dots of columns i … i+2, whose L rows are lanes 0 … 2
// of the quotients. It writes L and the pivots back into the rows, and
// returns true, only when all four pivots are positive; it writes nothing
// and returns false when one is not, or when the rows hold a −0.
//
//go:noescape
func laneBlock(rows, l, s *float64, b int) (ok bool)

// factorLanes factors rows 0 … b−1 by the row loop and then every full
// block of four rows after them in AVX2 lanes, and returns the first row it
// left for the row loop: 0 where the CPU or the band's width rules the
// lanes out.
//
// Each lane walks the columns of all four rows: a padded column subtracts
// ±0 from each sum it meets, which leaves every value but −0 unchanged, and
// a sum starts from the band's entry, so a block holding a −0 takes the row
// loop instead. So does a block whose lanes end on a pivot that is not
// positive: the row loop then names the row and leaves the partial factor
// it always leaves.
func (m *Band) factorLanes() (int, error) {
	n, b, w, v := m.n, m.b, m.b+1, m.v
	if !avx2 || b < laneMinBand || n < b+4 {
		return 0, nil
	}
	if err := m.factorRows(0, b); err != nil {
		return 0, err
	}
	// For b ≤ 128, the 4× mesh's b = 108 among them, the scratch stays on
	// the stack, so a factor allocates nothing more than the row loop does.
	var stack [4 * (128 + 3)]float64
	s := stack[:]
	if len(s) < 4*(b+3) {
		s = make([]float64, 4*(b+3))
	}
	i := b
	for ; i+4 <= n; i += 4 {
		if !laneBlock(&v[i*w], &v[(i-b)*w+b], &s[0], b) {
			if err := m.factorRows(i, i+4); err != nil {
				return i, err
			}
		}
	}
	return i, nil
}
