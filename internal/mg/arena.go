package mg

// arena recycles the allocation graph of a hierarchy build. Profiling the
// refined reference solve puts ~70% of its wall time and nearly all of its
// 57 MB/op inside Build — dominated by the append-grown Galerkin and
// prolongation arrays — yet every sweep point rebuilds from nothing. A
// hierarchy built with Options.Prev set steals the previous build's backing
// arrays through this arena instead: reset moves everything to a free list,
// and the build's allocation sites grab from it.
//
// Two grab flavors with different contracts:
//
//   - f64/i32/ints/bools return a zeroed length-n slice (best fit from the
//     free list, fresh allocation otherwise) and record it as used
//     immediately. Counting arrays and scatter targets use these.
//   - f64cap/i32cap return an EMPTY slice with at least the hinted capacity
//     for append-style assembly, and do NOT record it: the caller must hand
//     the final (possibly regrown) slice to adoptF64/adoptI32 once assembly
//     finishes, so the next generation reuses the grown array rather than
//     the stale original.
//
// The arena only ever recycles memory; it never changes what values are
// computed or in which order, so a rebuild through a recycled arena is
// bit-identical to a fresh build.
type arena struct {
	f64s  slab[float64]
	i32s  slab[int32]
	intS  slab[int]
	boolS slab[bool]
}

// reset returns every used array to the free lists, starting a new
// generation. The arrays of the hierarchy that owned them must no longer be
// in use.
func (ar *arena) reset() {
	ar.f64s.reset()
	ar.i32s.reset()
	ar.intS.reset()
	ar.boolS.reset()
}

func (ar *arena) f64(n int) []float64 { return ar.f64s.grab(n) }
func (ar *arena) i32(n int) []int32   { return ar.i32s.grab(n) }
func (ar *arena) ints(n int) []int    { return ar.intS.grab(n) }
func (ar *arena) bools(n int) []bool  { return ar.boolS.grab(n) }

// f64cap returns an empty slice with capacity ≥ hint when the free list can
// supply one (falling back to the largest available), for append-style
// assembly. The final slice must be passed to adoptF64.
func (ar *arena) f64cap(hint int) []float64 { return ar.f64s.grabCap(hint) }
func (ar *arena) i32cap(hint int) []int32   { return ar.i32s.grabCap(hint) }

// adoptF64 records the final state of an append-assembled slice so the next
// generation reuses its (possibly regrown) backing array.
func (ar *arena) adoptF64(s []float64) { ar.f64s.used = append(ar.f64s.used, s) }
func (ar *arena) adoptI32(s []int32)   { ar.i32s.used = append(ar.i32s.used, s) }

// slab is the arena's free/used bookkeeping for one element type.
type slab[T any] struct {
	free, used [][]T
}

func (s *slab[T]) reset() {
	s.free = append(s.free, s.used...)
	s.used = s.used[:0]
}

// grab returns a zeroed length-n slice, best fit from the free list or
// freshly allocated, and records it as used.
func (s *slab[T]) grab(n int) []T {
	var v []T
	if i := s.bestFit(n); i >= 0 {
		v = s.take(i)[:n]
		clear(v)
	} else {
		v = make([]T, n)
	}
	s.used = append(s.used, v)
	return v
}

// grabCap returns an empty slice for append-style assembly without
// recording it. Nothing meeting the hint falls back to the largest free
// entry: growing the biggest recycled array wastes the least.
func (s *slab[T]) grabCap(hint int) []T {
	i := s.bestFit(hint)
	if i < 0 {
		for k, v := range s.free {
			if i < 0 || cap(v) > cap(s.free[i]) {
				i = k
			}
		}
	}
	if i >= 0 {
		return s.take(i)[:0]
	}
	return make([]T, 0, hint)
}

// bestFit returns the index of the smallest free entry with capacity ≥ n,
// or -1.
func (s *slab[T]) bestFit(n int) int {
	best := -1
	for i, v := range s.free {
		if cap(v) >= n && (best < 0 || cap(v) < cap(s.free[best])) {
			best = i
		}
	}
	return best
}

// take removes free entry i and returns it at full capacity.
func (s *slab[T]) take(i int) []T {
	v := s.free[i]
	last := len(s.free) - 1
	s.free[i] = s.free[last]
	s.free[last] = nil
	s.free = s.free[:last]
	return v[:cap(v)]
}
