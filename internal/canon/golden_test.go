package canon_test

import (
	"encoding/hex"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/fem"
	"repro/internal/stack"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite the key golden file")

// kinds holds one field of every kind the encoder distinguishes.
type kinds struct {
	B    bool
	I    int8
	U    uint16
	F32  float32
	F    []float64
	C    complex128
	S    string
	P    *kinds
	Nil  *kinds
	Any  any
	Arr  [2]int
	NilS []string
	M    map[string][]int
	NilM map[int]bool
	Fn   func()
}

// TestKeyGolden pins the exact encoding and digest (canon.Sum, in hex) of a
// reference-solve cache key (the reference model and a Fig. 4 stack, as sweep.Cache keys
// them) and of a value with a field of every kind. A change to either
// changes cache and coalescing keys, so the encoder may only be rewritten
// byte for byte.
func TestKeyGolden(t *testing.T) {
	s, err := stack.Fig4Block(units.UM(10))
	if err != nil {
		t.Fatal(err)
	}
	cyc := &kinds{S: "self"}
	cyc.P = cyc
	mixed := kinds{
		B: true, I: -7, U: 65535, F32: 0.1,
		F:   []float64{0.1, -0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), 1e300, 5e-324},
		C:   complex(1.5, -2),
		S:   "tab\t\"quote\" π \x00",
		P:   cyc,
		Any: uint8(3),
		Arr: [2]int{-1, 1},
		M:   map[string][]int{"b": {2}, "a": nil, "": {}},
	}
	var b strings.Builder
	for _, vs := range [][]any{{fem.ReferenceModel{}, s}, {"solve", mixed, nil}} {
		sum := canon.Sum(vs...)
		b.WriteString(canon.String(vs...) + "\n" + hex.EncodeToString(sum[:]) + "\n")
	}
	got := b.String()
	const path = "testdata/keys.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("keys changed:\ngot  %s\nwant %s", got, want)
	}
}
