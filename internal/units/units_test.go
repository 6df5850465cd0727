package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLengthConversions(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"UM(1)", UM(1), 1e-6},
		{"UM(500)", UM(500), 5e-4},
		{"MM(1)", MM(1), 1e-3},
		{"MM(10)", MM(10), 1e-2},
		{"MM2(100)", MM2(100), 1e-4},
		{"UM2(1)", UM2(1), 1e-12},
		{"UM2(10000)", UM2(10000), 1e-8},
		{"ToUM(1e-6)", ToUM(1e-6), 1},
		{"ToMM(1e-3)", ToMM(1e-3), 1},
	}
	for _, c := range cases {
		if RelErr(c.got, c.want) > 1e-12 {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestPowerDensityConversion(t *testing.T) {
	// 700 W/mm^3 == 7e11 W/m^3 (the paper's device power density).
	if got := WPerMM3(700); RelErr(got, 7e11) > 1e-12 {
		t.Fatalf("WPerMM3(700) = %g, want 7e11", got)
	}
	if got := WPerMM3(70); RelErr(got, 7e10) > 1e-12 {
		t.Fatalf("WPerMM3(70) = %g, want 7e10", got)
	}
}

func TestRoundTripUM(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return RelErr(ToUM(UM(v)), v) <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); RelErr(got, 0.1) > 1e-12 {
		t.Errorf("RelErr(11,10) = %g, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %g, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %g, want +Inf", got)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if RelErr(got[i], want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLinspaceEndpointsExact(t *testing.T) {
	got := Linspace(0.1, 0.7, 7)
	if got[0] != 0.1 || got[6] != 0.7 {
		t.Fatalf("endpoints %g, %g not exact", got[0], got[6])
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestFormatting(t *testing.T) {
	if s := FormatMeters(UM(5)); !strings.Contains(s, "µm") {
		t.Errorf("FormatMeters(5µm) = %q, want µm suffix", s)
	}
	if s := FormatMeters(MM(10)); !strings.Contains(s, "mm") {
		t.Errorf("FormatMeters(10mm) = %q, want mm suffix", s)
	}
}
