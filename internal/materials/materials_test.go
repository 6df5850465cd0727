package materials

import (
	"math"
	"strings"
	"testing"
)

func TestPaperConductivities(t *testing.T) {
	// §IV of the paper fixes these values.
	cases := []struct {
		m    Material
		want float64
	}{
		{SiO2, 1.4},
		{Polyimide, 0.15},
		{Copper, 400},
		{Silicon, 130},
	}
	for _, c := range cases {
		if c.m.K != c.want {
			t.Errorf("%s: K = %g, want %g", c.m.Name, c.m.K, c.want)
		}
	}
}

func TestLookupKnown(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, m.Name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("stock material %q invalid: %v", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("unobtainium")
	if err == nil {
		t.Fatal("Lookup(unobtainium) succeeded, want error")
	}
	if !strings.Contains(err.Error(), "unobtainium") {
		t.Errorf("error %q does not mention the requested name", err)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 stock materials, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestConductivityConstant(t *testing.T) {
	for _, temp := range []float64{-50, 0, 27, 125} {
		if got := Copper.Conductivity(temp); got != Copper.K {
			t.Errorf("constant material conductivity at %g = %g, want %g", temp, got, Copper.K)
		}
	}
}

func TestConductivityLinear(t *testing.T) {
	m := Material{Name: "test", K: 100, TempCoeff: -0.001, RefTemp: 27}
	if got := m.Conductivity(27); got != 100 {
		t.Errorf("k(ref) = %g, want 100", got)
	}
	if got := m.Conductivity(127); got != 90 {
		t.Errorf("k(ref+100) = %g, want 90", got)
	}
	if got := m.Conductivity(-73); math.Abs(got-110) > 1e-9 {
		t.Errorf("k(ref-100) = %g, want 110", got)
	}
}

func TestConductivityClampsPositive(t *testing.T) {
	m := Material{Name: "test", K: 10, TempCoeff: -0.01, RefTemp: 27}
	// At ref+200 the linear fit gives -10; conductivity must stay positive.
	if got := m.Conductivity(27 + 200); got <= 0 {
		t.Errorf("conductivity clamp failed: %g", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Material{Name: "ok", K: 1}).Validate(); err != nil {
		t.Errorf("valid material rejected: %v", err)
	}
	if err := (Material{Name: "", K: 1}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
	if err := (Material{Name: "bad", K: 0}).Validate(); err == nil {
		t.Error("zero conductivity accepted")
	}
	if err := (Material{Name: "bad", K: -3}).Validate(); err == nil {
		t.Error("negative conductivity accepted")
	}
}

func TestWithConductivity(t *testing.T) {
	eff := SiO2.WithConductivity(2.0)
	if eff.K != 2.0 || eff.Name != "SiO2" {
		t.Errorf("WithConductivity = %+v", eff)
	}
	if SiO2.K != 1.4 {
		t.Error("WithConductivity mutated the original")
	}
}
