package core

import (
	"fmt"
	"math"
	"testing"
)

// bisectInverse is scaledInverse as it was before ζ ≥ 1 moved to
// monotoneInverse, kept verbatim as the reference those inversions are
// checked against. Nothing outside tests calls it.
func bisectInverse(zeta, level float64) (float64, error) {
	if !(level > 0) || level >= 1 && zeta >= 1 {
		return 0, fmt.Errorf("core: level %g not reachable for ζ=%g", level, zeta)
	}
	f := func(x float64) float64 { return ScaledStep(zeta, x) - level }
	var lo, hi float64
	if zeta < 1 {
		hi = math.Pi / math.Sqrt(1-zeta*zeta)
		if peak := ScaledStep(zeta, hi); level > peak {
			return 0, fmt.Errorf("core: level %g above first peak %g for ζ=%g", level, peak, zeta)
		}
	} else {
		hi = 1
		for f(hi) < 0 {
			lo = hi
			hi *= 2
			if hi > 1e6*zeta {
				return 0, fmt.Errorf("core: no crossing of level %g found for ζ=%g", level, zeta)
			}
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if f(mid) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-13*math.Max(1, hi) {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}

// inverseTol bounds |Newton − bisection| for ζ ≥ 1, where the bisection
// put the crossing of level at scaled time x. Both return a point within
// their stopping width of a sign change of ScaledStep − level, so they
// agree within 2e-13·max(1, x) wherever that sign change is unique.
// ScaledStep is 1 − P with P ≈ 1 − level computed to a few ulps of P; that
// jitter, up to 16·2⁻⁵²·P, can put more sign changes within
// 16·2⁻⁵²·(1 − level)/v′(x) of the crossing, where v′ is the response's
// slope, and the two may settle on different ones. That term only matters
// near level 0, where v′ is small and P ≈ 1: there the bisection's own
// answer is no sharper.
func inverseTol(zeta, level, x float64) float64 {
	s := math.Sqrt(zeta*zeta - 1)
	// v′(x) = x·e^{−ζx}·sinh(s·x)/(s·x), written independently of stepSlope.
	slope := x * math.Exp(-zeta*x)
	if s*x >= 1e-3 {
		slope = (math.Exp(-x/(zeta+s)) - math.Exp(-(zeta+s)*x)) / (2 * s)
	}
	return 2e-13*math.Max(1, x) + 32*0x1p-52*(1-level)/slope
}

// checkInverse compares every entry point that inverts the step response
// at (ζ, level) against bisectInverse: an error exactly where the twin
// returns one, and otherwise a time within inverseTol.
func checkInverse(t *testing.T, zeta, level float64) {
	t.Helper()
	const wn = 1e10
	m, err := FromZetaOmega(zeta, wn)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got float64, gerr error, want float64, werr error, tol float64) {
		t.Helper()
		switch {
		case (gerr == nil) != (werr == nil):
			t.Errorf("%s at ζ=%v level=%v: error %v, bisection error %v", what, zeta, level, gerr, werr)
		case gerr == nil && !(math.Abs(got-want) <= tol):
			t.Errorf("%s at ζ=%v level=%v: %v, bisection %v (|Δ| %.3g > %.3g)", what, zeta, level, got, want, math.Abs(got-want), tol)
		}
	}
	x, xerr := bisectInverse(zeta, level)
	td, err := m.ThresholdDelay(level)
	same("ThresholdDelay", td, err, x/wn, xerr, inverseTol(zeta, level, x)/wn)
	xs, xserr := bisectInverse(zeta, 1-level)
	ts, err := m.SettlingTime(level)
	same("SettlingTime", ts, err, xs/wn, xserr, inverseTol(zeta, 1-level, xs)/wn)
}

// TestScaledInverseMatchesBisection checks monotoneInverse against the
// bisection it replaced, through all four public entry points, on 2,001
// log-spaced ζ in [1, 1e6] and four ζ at or just above 1. The
// settle band the sweep uses (SettlingBand) must also hold the plain
// 2e-13·max(1, x) bound: those are the bits that move in NodeAnalysis.
func TestScaledInverseMatchesBisection(t *testing.T) {
	zetas := []float64{1, 1 + 0x1p-52, 1 + 1e-9, 1.0001}
	for i := 0; i <= 2000; i++ {
		zetas = append(zetas, math.Pow(10, 6*float64(i)/2000))
	}
	levels := []float64{1e-6, 0.1, 0.5, 0.9, 0.99, 1 - 1e-9}
	for _, z := range zetas {
		for _, level := range levels {
			checkInverse(t, z, level)
		}

		d, err := ScaledDelay50Numeric(z)
		want, werr := bisectInverse(z, 0.5)
		if err != nil || werr != nil || !(math.Abs(d-want) <= 2e-13*want) {
			t.Errorf("ScaledDelay50Numeric(%v) = %v, %v; bisection %v, %v", z, d, err, want, werr)
		}
		r, err := ScaledRiseNumeric(z)
		x10, _ := bisectInverse(z, 0.1)
		x90, _ := bisectInverse(z, 0.9)
		if want := x90 - x10; err != nil || !(math.Abs(r-want) <= 2e-13*want) {
			t.Errorf("ScaledRiseNumeric(%v) = %v, %v; bisection %v", z, r, err, want)
		}

		m, _ := FromZetaOmega(z, 1)
		ts, err := m.SettlingTime(SettlingBand)
		want, werr = bisectInverse(z, 1-SettlingBand)
		if err != nil || werr != nil || !(math.Abs(ts-want) <= 2e-13*want) {
			t.Errorf("SettlingTime(SettlingBand) at ζ=%v: %v, %v; bisection %v, %v", z, ts, err, want, werr)
		}
	}
}

// FuzzScaledInverse draws ζ ∈ [1, 1e8] and level ∈ (0, 1) and applies
// checkInverse's rule: the same errors as the bisection and answers
// within inverseTol.
func FuzzScaledInverse(f *testing.F) {
	for _, z := range []float64{1, 1 + 0x1p-52, 1 + 1e-9, 1.0001, 2, 37, 1e6, 6.7e7, 1e8} {
		for _, level := range []float64{1e-300, 1e-16, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-9} {
			f.Add(z, level)
		}
	}
	// ζ − s rounds to 0 here, and ScaledStep still crosses 1e-16 before
	// s·x = 30, below x = 1 where the bisection started.
	f.Add(67920363.261718437, 1e-16)
	f.Fuzz(func(t *testing.T, zeta, level float64) {
		zeta = 1 + math.Mod(math.Abs(zeta-1), 1e8-1)
		level = math.Mod(math.Abs(level), 1)
		if !(zeta >= 1 && level > 0) {
			t.Skip("level maps to 0, or a NaN or ±Inf input")
		}
		checkInverse(t, zeta, level)
	})
}
