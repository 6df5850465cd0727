// Package units provides SI unit helpers and numeric comparison utilities
// shared across the TTSV thermal-modeling packages.
//
// All physical quantities in this repository are stored in base SI units
// (meters, watts, kelvins). The constructors in this package exist so that
// call sites can state values in the units the paper uses (micrometers,
// millimeters, W/mm^3) without sprinkling conversion factors around.
package units

import (
	"fmt"
	"math"
)

// Conversion factors to base SI units.
const (
	// Micrometer is one micrometer expressed in meters.
	Micrometer = 1e-6
	// Millimeter is one millimeter expressed in meters.
	Millimeter = 1e-3
	// Centimeter is one centimeter expressed in meters.
	Centimeter = 1e-2
)

// UM converts a length in micrometers to meters.
func UM(v float64) float64 { return v * Micrometer }

// MM converts a length in millimeters to meters.
func MM(v float64) float64 { return v * Millimeter }

// MM2 converts an area in square millimeters to square meters.
func MM2(v float64) float64 { return v * Millimeter * Millimeter }

// UM2 converts an area in square micrometers to square meters.
func UM2(v float64) float64 { return v * Micrometer * Micrometer }

// WPerMM3 converts a volumetric power density from W/mm^3 to W/m^3.
func WPerMM3(v float64) float64 { return v / (Millimeter * Millimeter * Millimeter) }

// ToUM converts a length in meters to micrometers.
func ToUM(v float64) float64 { return v / Micrometer }

// ToMM converts a length in meters to millimeters.
func ToMM(v float64) float64 { return v / Millimeter }

// RelErr returns |got-want| / max(|want|, floor). A small floor avoids
// division blow-up when want is (near) zero.
func RelErr(got, want float64) float64 {
	denom := math.Abs(want)
	if denom < 1e-300 {
		if math.Abs(got) < 1e-300 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / denom
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// It panics if n < 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("units: Linspace needs n >= 2, got %d", n))
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(float64(i)*step)
	}
	out[n-1] = hi
	return out
}

// FormatMeters renders a length choosing µm or mm as appropriate.
func FormatMeters(l float64) string {
	if math.Abs(l) < Millimeter {
		return fmt.Sprintf("%.3g µm", ToUM(l))
	}
	return fmt.Sprintf("%.3g mm", ToMM(l))
}
