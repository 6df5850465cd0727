package units

import (
	"math"
	"strings"
	"testing"
)

func TestParseValueScales(t *testing.T) {
	// Scale factors must be applied the same way runtime call sites apply
	// them (a runtime multiply, not a folded constant), so expectations are
	// computed through variables.
	micro, milli := 1e-6, 1e-3
	cases := []struct {
		in   string
		dim  Dim
		want float64
	}{
		{"42", DimNone, 42},
		{"1meg", DimNone, 1e6},
		{"1MEG", DimNone, 1e6},
		{"2.5k", DimNone, 2.5e3},
		{"300u", DimLength, 300 * micro},
		{"300um", DimLength, UM(300)},
		{"0.5um", DimLength, UM(0.5)},
		{"1mm", DimLength, MM(1)},
		{"1m", DimLength, 1},        // meter, not milli
		{"1m", DimNone, 1 * milli},  // milli when dimensionless
		{"25k", DimTemperature, 25}, // kelvin, not kilo
		{"25k", DimNone, 25e3},
		{"27c", DimTemperature, 27},
		{"0.35w", DimPower, 0.35},
		{"50mw", DimPower, 0.05},
		{"700w/mm3", DimPowerDensity, WPerMM3(700)},
		{"70w/m3", DimPowerDensity, 70},
		{"100us", DimTime, 100 * micro},
		{"1e-4s", DimTime, 1e-4},
		{"1e-6", DimLength, 1e-6},
		{"1e-3m2", DimArea, 1e-3},
		{"2mm2", DimArea, MM2(2)},
		{"-3", DimNone, -3},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in, c.dim)
		if err != nil {
			t.Errorf("ParseValue(%q, %v): %v", c.in, c.dim, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseValue(%q, %v) = %v, want %v (bitwise)", c.in, c.dim, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	cases := []struct {
		in  string
		dim Dim
		msg string
	}{
		{"", DimNone, "empty"},
		{"abc", DimNone, "does not start with a number"},
		{"10zz", DimLength, "unknown unit suffix"},
		{"10w", DimLength, "unknown unit suffix"}, // watts on a length
		{"10um", DimPower, "unknown unit suffix"}, // meters on a power
		{"inf", DimNone, "does not start with a number"},
		{"NaN", DimNone, "does not start with a number"},
		{"0x1p4", DimNone, "unknown unit suffix"}, // "0" + suffix "x1p4"
		{"1_000", DimNone, "unknown unit suffix"}, // "1" + suffix "_000"
		{"1e400", DimNone, "out of range"},
		{strings.Repeat("1", 80), DimNone, "longer than"},
	}
	for _, c := range cases {
		_, err := ParseValue(c.in, c.dim)
		if err == nil {
			t.Errorf("ParseValue(%q, %v) unexpectedly succeeded", c.in, c.dim)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("ParseValue(%q, %v) error %q does not mention %q", c.in, c.dim, err, c.msg)
		}
	}
}

func TestParseValueFiniteOnly(t *testing.T) {
	if v, err := ParseValue("1e308", DimNone); err != nil || math.IsInf(v, 0) {
		t.Fatalf("1e308: v=%v err=%v", v, err)
	}
	if _, err := ParseValue("1e308meg", DimNone); err == nil {
		t.Fatal("overflowing suffixed value accepted")
	}
}
