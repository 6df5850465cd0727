package canon

import (
	"crypto/sha256"
	"math"
	"strings"
	"testing"
)

type inner struct {
	A int
	B string
}

type outer struct {
	P *inner
	M map[string]float64
	S []int
	F float64
}

func TestStringDeterministic(t *testing.T) {
	v := outer{
		P: &inner{A: 1, B: "x"},
		M: map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		S: []int{1, 2, 3},
		F: 0.1,
	}
	first := String(v)
	for i := 0; i < 50; i++ {
		if got := String(v); got != first {
			t.Fatalf("encoding not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestPointerFieldsEncodeByValue(t *testing.T) {
	a := outer{P: &inner{A: 7, B: "q"}}
	b := outer{P: &inner{A: 7, B: "q"}}
	if String(a) != String(b) {
		t.Fatalf("equal pointees encode differently:\n%s\nvs\n%s", String(a), String(b))
	}
	c := outer{P: &inner{A: 8, B: "q"}}
	if String(a) == String(c) {
		t.Fatalf("distinct pointees collide: %s", String(a))
	}
	if strings.Contains(String(a), "0x") {
		t.Fatalf("encoding leaks an address: %s", String(a))
	}
}

func TestNilsAreDistinguished(t *testing.T) {
	if String(outer{}) == String(outer{P: &inner{}}) {
		t.Fatal("nil pointer collides with zero pointee")
	}
	if String([]int(nil)) == String([]int{}) {
		t.Fatal("nil slice collides with empty slice")
	}
	if String(map[string]int(nil)) == String(map[string]int{}) {
		t.Fatal("nil map collides with empty map")
	}
	if String(nil) != "nil" {
		t.Fatalf("nil interface: got %q", String(nil))
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	// Adjacent floats must encode distinctly (shortest round-trip form).
	a, b := 0.1, math.Nextafter(0.1, 1)
	if String(a) == String(b) {
		t.Fatalf("adjacent floats collide: %s", String(a))
	}
	if String(math.NaN()) != "NaN" {
		t.Fatalf("NaN: got %q", String(math.NaN()))
	}
	if String(0.0) == String(math.Copysign(0, -1)) {
		t.Fatal("-0 collides with +0")
	}
}

func TestTypeNamesAreEmbedded(t *testing.T) {
	type otherInner struct {
		A int
		B string
	}
	if String(inner{1, "x"}) == String(otherInner{1, "x"}) {
		t.Fatal("structurally identical but distinct types collide")
	}
	// The same value through an interface encodes as its dynamic type.
	var any1 any = inner{1, "x"}
	if String(any1) != String(inner{1, "x"}) {
		t.Fatalf("interface indirection changes encoding: %s vs %s", String(any1), String(inner{1, "x"}))
	}
}

type ring struct {
	Name string
	Next *ring
}

func TestCycleSafe(t *testing.T) {
	a := &ring{Name: "a"}
	b := &ring{Name: "b", Next: a}
	a.Next = b
	got := String(a) // must terminate
	if !strings.Contains(got, "cycle") {
		t.Fatalf("cycle not marked: %s", got)
	}
	// A DAG (shared pointer, no cycle) is not a cycle.
	shared := &inner{A: 1}
	type pair struct{ L, R *inner }
	if s := String(pair{shared, shared}); strings.Contains(s, "cycle") {
		t.Fatalf("shared pointer misdetected as cycle: %s", s)
	}
}

func TestMapOrderIndependent(t *testing.T) {
	m1 := map[string]int{}
	m2 := map[string]int{}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for i, k := range keys {
		m1[k] = i
	}
	for i := len(keys) - 1; i >= 0; i-- {
		m2[keys[i]] = i
	}
	if String(m1) != String(m2) {
		t.Fatalf("map insertion order leaks:\n%s\nvs\n%s", String(m1), String(m2))
	}
}

func TestSumStable(t *testing.T) {
	h := Sum("solve", inner{1, "x"})
	if h != sha256.Sum256([]byte(String("solve", inner{1, "x"}))) {
		t.Fatal("sum is not the SHA-256 of the encoding")
	}
	if h != Sum("solve", inner{1, "x"}) {
		t.Fatal("sum not deterministic")
	}
	if h == Sum("sweep", inner{1, "x"}) {
		t.Fatal("distinct inputs collide")
	}
}

func TestMultiValueSeparator(t *testing.T) {
	if String("a", "b") == String("a|b") {
		// strconv.Quote makes this impossible; guard it anyway.
		t.Fatal("argument boundary ambiguous")
	}
}
