package core

import (
	"math"
	"testing"

	"eedtree/internal/fit"
)

// TestRefitCoefficientsRederive re-derives RefitDelayFit and RefitRiseFit
// the way the paper derived eqs. (33) and (34): solve the scaled
// second-order step response numerically on a ζ grid, then fit the
// functional form by damped Gauss–Newton (internal/fit).
func TestRefitCoefficientsRederive(t *testing.T) {
	grid := func(lo, step float64, n int, exact func(float64) (float64, error)) (zs, ys []float64) {
		for i := 0; i < n; i++ {
			z := lo + step*float64(i)
			y, err := exact(z)
			if err != nil {
				t.Fatal(err)
			}
			zs, ys = append(zs, z), append(ys, y)
		}
		return zs, ys
	}

	// Eq. (33) with A pinned at π/3, the exact scaled delay at ζ = 0,
	// fitted on ζ ∈ [0.05, 5] from the published (B, C).
	zs, ys := grid(0.05, 0.05, 100, ScaledDelay50Numeric)
	delay := func(p []float64, z float64) float64 {
		return DelayFit{A: math.Pi / 3, B: p[0], C: p[1]}.Scaled(z)
	}
	d, err := fit.GaussNewton(delay, []float64{0.85, 1.39}, zs, ys, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("eq. 33: B, C = %.5f, %.5f", d.Params[0], d.Params[1])
	for i, want := range []float64{RefitDelayFit.B, RefitDelayFit.C} {
		if got := d.Params[i]; math.Abs(got-want) > 1e-3*want {
			t.Errorf("eq. 33 coefficient %d: fitted %.5f, printed %.5f", i, got, want)
		}
	}

	// Eq. (34), all seven coefficients, fitted on ζ ∈ [0.1, 5] from the
	// published set. The fit is flat enough in its parameters that the
	// digits wander; the fitted curve is what must reproduce.
	zs, ys = grid(0.1, 0.01, 491, ScaledRiseNumeric)
	rise := func(p []float64, z float64) float64 {
		return RiseFit{A: p[0], B: p[1], P: p[2], C: p[3], D: p[4], Q: p[5], E: p[6]}.Scaled(z)
	}
	r, err := fit.GaussNewton(rise, []float64{6.017, 0.4, 1.35, 5.0, 0.64, 1.25, 4.39}, zs, ys, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i <= 485; i++ {
		z := 0.15 + 0.01*float64(i)
		want := RefitRiseFit.Scaled(z)
		worst = math.Max(worst, math.Abs(rise(r.Params, z)-want)/want)
	}
	t.Logf("eq. 34: %.5g, %.2f%% from RefitRiseFit at worst", r.Params, 100*worst)
	if worst > 0.01 {
		t.Errorf("eq. 34: fitted curve strays %.2f%% from RefitRiseFit over ζ ∈ [0.15, 5]", 100*worst)
	}
}
