package stack

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestLoadBlockConfigOverlaysDefaults(t *testing.T) {
	in := strings.NewReader(`{"R": 8e-6, "NumPlanes": 4, "TL": 1e-6}`)
	cfg, err := LoadBlockConfig(in)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.R != 8e-6 || cfg.NumPlanes != 4 || cfg.TL != 1e-6 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	// Untouched fields keep the paper defaults.
	d := DefaultBlock()
	if cfg.TSi1 != d.TSi1 || cfg.FootprintSide != d.FootprintSide || cfg.Fill.Name != "Cu" {
		t.Fatalf("defaults lost: %+v", cfg)
	}
	if _, err := cfg.Build(); err != nil {
		t.Fatalf("loaded config does not build: %v", err)
	}
}

func TestLoadBlockConfigMaterialByName(t *testing.T) {
	cfg, err := LoadBlockConfig(strings.NewReader(`{"Fill": "W", "Bond": "BCB"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fill.Name != "W" || cfg.Fill.K != 173 {
		t.Errorf("fill = %+v", cfg.Fill)
	}
	if cfg.Bond.Name != "BCB" {
		t.Errorf("bond = %+v", cfg.Bond)
	}
}

func TestLoadBlockConfigMaterialObject(t *testing.T) {
	cfg, err := LoadBlockConfig(strings.NewReader(
		`{"Liner": {"Name": "SiN", "K": 20, "C": 1.8e6}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Liner.Name != "SiN" || cfg.Liner.K != 20 {
		t.Errorf("liner = %+v", cfg.Liner)
	}
}

func TestLoadBlockConfigRejections(t *testing.T) {
	if _, err := LoadBlockConfig(strings.NewReader(`{"Radius": 1e-6}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadBlockConfig(strings.NewReader(`{"Fill": "unobtainium"}`)); err == nil {
		t.Error("unknown material name accepted")
	}
	if _, err := LoadBlockConfig(strings.NewReader(`{"Fill": {"Name": "x", "K": -4}}`)); err == nil {
		t.Error("invalid material object accepted")
	}
	if _, err := LoadBlockConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBlockConfigJSONRoundTrip(t *testing.T) {
	orig := DefaultBlock()
	orig.R = units.UM(7)
	orig.ViaCount = 4
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBlockConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.R != orig.R || back.ViaCount != orig.ViaCount || back.Fill.K != orig.Fill.K {
		t.Fatalf("round trip lost data: %+v vs %+v", back, orig)
	}
	s1, err := orig.Build()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s1.TotalPower() != s2.TotalPower() || s1.Via.Radius != s2.Via.Radius {
		t.Error("round-tripped stack differs")
	}
}
