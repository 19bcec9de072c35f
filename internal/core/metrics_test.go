package core

import (
	"math"
	"testing"

	"eedtree/internal/waveform"
)

// TestPublishedDelayFitAccuracy: the published eq.-(33) coefficients must
// reproduce the exact scaled 50% delay within a few percent across the ζ
// range of Fig. 6 — the paper's headline accuracy claim for the fit.
func TestPublishedDelayFitAccuracy(t *testing.T) {
	for z := 0.1; z <= 5; z += 0.1 {
		exact, err := ScaledDelay50Numeric(z)
		if err != nil {
			t.Fatal(err)
		}
		got := PublishedDelayFit.Scaled(z)
		if rel := math.Abs(got-exact) / exact; rel > 0.035 {
			t.Fatalf("ζ=%.2f: published fit %g vs exact %g (%.1f%% error)", z, got, exact, rel*100)
		}
	}
}

// TestRefitDelayFitAccuracy: our re-derived coefficients must match the
// numerics at least as well over the fitted range.
func TestRefitDelayFitAccuracy(t *testing.T) {
	for z := 0.1; z <= 5; z += 0.1 {
		exact, err := ScaledDelay50Numeric(z)
		if err != nil {
			t.Fatal(err)
		}
		got := RefitDelayFit.Scaled(z)
		if rel := math.Abs(got-exact) / exact; rel > 0.04 {
			t.Fatalf("ζ=%.2f: refit %g vs exact %g (%.1f%% error)", z, got, exact, rel*100)
		}
	}
}

// TestRefitRiseFitAccuracy: the re-derived eq.-(34) coefficients peak at
// the 4.02% relative error (ζ = 0.23) that RefitRiseFit's comment states,
// over the 0.01 grid ζ = k/100, k = 15…500 (see metrics.go).
func TestRefitRiseFitAccuracy(t *testing.T) {
	worst, worstK := 0.0, 0
	for k := 15; k <= 500; k++ {
		z := float64(k) / 100
		exact, err := ScaledRiseNumeric(z)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(RefitRiseFit.Scaled(z)-exact) / exact; rel > worst {
			worst, worstK = rel, k
		}
	}
	if pct := math.Round(worst * 1e4); pct != 402 || worstK != 23 {
		t.Errorf("rise fit error peaks at %.4f%% (ζ = %.2f), want 4.02%% at ζ = 0.23", worst*100, float64(worstK)/100)
	}
}

// TestFitsRecoverElmoreInRCLimit (paper eqs. 37–38): for large ζ the
// closed forms collapse to the Elmore (Wyatt) values 0.693·ΣRC and
// 2.2·ΣRC.
func TestFitsRecoverElmoreInRCLimit(t *testing.T) {
	zeta := 40.0
	m, err := FromZetaOmega(zeta, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	tau := m.TauRC()
	if rel := math.Abs(m.Delay50()-math.Ln2*tau) / (math.Ln2 * tau); rel > 0.01 {
		t.Fatalf("RC-limit delay off by %.2f%%", rel*100)
	}
	if rel := math.Abs(m.RiseTime()-math.Log(9)*tau) / (math.Log(9) * tau); rel > 0.01 {
		t.Fatalf("RC-limit rise off by %.2f%%", rel*100)
	}
	if got, want := m.ElmoreDelay50(), math.Ln2*tau; math.Abs(got-want) > 1e-18 {
		t.Fatalf("ElmoreDelay50 = %g, want %g", got, want)
	}
	if got, want := m.ElmoreRiseTime(), math.Log(9)*tau; math.Abs(got-want) > 1e-18 {
		t.Fatalf("ElmoreRiseTime = %g, want %g", got, want)
	}
}

// TestDelayMatchesSampledResponse: Delay50/RiseTime from the fits must
// agree with direct measurements on the model's own step response.
func TestDelayMatchesSampledResponse(t *testing.T) {
	for _, zeta := range []float64{0.3, 0.7, 1.0, 1.8, 3.0} {
		m, _ := FromZetaOmega(zeta, 1e9)
		f := m.StepResponse(1)
		horizon := 5 * (1 + 2*zeta) / 1e9 * 3
		w := waveform.MustSample(f, 0, horizon, 60000)
		d, err := w.Delay50(1)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.Delay50()-d) / d; rel > 0.04 {
			t.Fatalf("ζ=%g: closed-form delay %g vs sampled %g (%.1f%%)", zeta, m.Delay50(), d, rel*100)
		}
		r, err := w.RiseTime(1)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.RiseTime()-r) / r; rel > 0.04 {
			t.Fatalf("ζ=%g: closed-form rise %g vs sampled %g (%.1f%%)", zeta, m.RiseTime(), r, rel*100)
		}
	}
}

// TestOvershootFormula (paper eq. 39): the n-th extremum magnitudes of the
// sampled underdamped response must match e^{−nπζ/√(1−ζ²)}, at the times
// of eq. (40)/(41).
func TestOvershootFormula(t *testing.T) {
	zeta, wn := 0.35, 1e9
	m, _ := FromZetaOmega(zeta, wn)
	f := m.StepResponse(1)
	w := waveform.MustSample(f, 0, 60e-9, 120000)
	ex := w.Extrema()
	if len(ex) < 3 {
		t.Fatalf("expected several extrema, got %d", len(ex))
	}
	for n := 1; n <= 3; n++ {
		wantMag := m.Overshoot(n)
		wantT := m.OvershootTime(n)
		gotMag := math.Abs(ex[n-1].V - 1)
		if math.Abs(gotMag-wantMag) > 2e-3 {
			t.Fatalf("extremum %d magnitude: sampled %g vs eq.(39) %g", n, gotMag, wantMag)
		}
		if math.Abs(ex[n-1].T-wantT) > 0.02e-9 {
			t.Fatalf("extremum %d time: sampled %g vs eq.(40) %g", n, ex[n-1].T, wantT)
		}
		// Odd extrema are overshoots (maxima), even are undershoots.
		if ex[n-1].Maximum != (n%2 == 1) {
			t.Fatalf("extremum %d polarity wrong", n)
		}
	}
}

// TestSettlingTimeUnderdamped (paper eq. 42): the closed-form settling time
// must bound the sampled response within the ±x band from there on, and
// must coincide with an extremum time.
func TestSettlingTimeUnderdamped(t *testing.T) {
	zeta, wn := 0.25, 1e9
	m, _ := FromZetaOmega(zeta, wn)
	x := 0.1
	ts, err := m.SettlingTime(x)
	if err != nil {
		t.Fatal(err)
	}
	f := m.StepResponse(1)
	// After ts, the response stays within the band (sampling at the
	// subsequent extremum times where the envelope peaks).
	root := math.Sqrt(1 - zeta*zeta)
	for n := 1; n <= 30; n++ {
		tn := float64(n) * math.Pi / (wn * root)
		if tn <= ts*(1+1e-9) {
			continue
		}
		if dev := math.Abs(f(tn) - 1); dev > x+1e-9 {
			t.Fatalf("response deviates %g at t=%g after settling time %g", dev, tn, ts)
		}
	}
	// The extremum immediately before ts must violate the band, otherwise
	// ts is not tight.
	prev := ts - math.Pi/(wn*root)
	if prev > 0 {
		if dev := math.Abs(f(prev) - 1); dev < x {
			t.Fatalf("settling time not tight: previous extremum deviation %g < band %g", dev, x)
		}
	}
}

func TestSettlingTimeMonotone(t *testing.T) {
	// Overdamped: numeric inversion.
	m, _ := FromZetaOmega(2, 1e9)
	ts, err := m.SettlingTime(0.1)
	if err != nil {
		t.Fatal(err)
	}
	f := m.StepResponse(1)
	if got := f(ts); math.Abs(got-0.9) > 1e-6 {
		t.Fatalf("response at settling time = %g, want 0.90", got)
	}
	// RC-only closed form: ln(10)·τ for x = 0.1.
	rc, _ := FromSums(1e-9, 0)
	ts, err = rc.SettlingTime(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(10) * 1e-9; math.Abs(ts-want) > 1e-18 {
		t.Fatalf("RC settling = %g, want %g", ts, want)
	}
}

func TestSettlingTimeValidation(t *testing.T) {
	m, _ := FromZetaOmega(1, 1e9)
	for _, x := range []float64{0, 1, -0.5, 1.5} {
		if _, err := m.SettlingTime(x); err == nil {
			t.Errorf("SettlingTime(%g): expected error", x)
		}
	}
}

func TestOvershootClampsBadN(t *testing.T) {
	// Extremum indices below 1 do not exist; the accessors clamp to the
	// first extremum instead of panicking so hostile inputs cannot crash
	// a whole-tree analysis.
	m, _ := FromZetaOmega(0.5, 1e9)
	for _, n := range []int{0, -3} {
		if got, want := m.Overshoot(n), m.Overshoot(1); got != want {
			t.Fatalf("Overshoot(%d) = %g, want clamp to Overshoot(1) = %g", n, got, want)
		}
		if got, want := m.OvershootTime(n), m.OvershootTime(1); got != want {
			t.Fatalf("OvershootTime(%d) = %g, want clamp to OvershootTime(1) = %g", n, got, want)
		}
	}
}

func TestScaledNumericValidation(t *testing.T) {
	if _, err := ScaledDelay50Numeric(0); err == nil {
		t.Fatal("expected error for ζ=0")
	}
	if _, err := ScaledRiseNumeric(-1); err == nil {
		t.Fatal("expected error for ζ<0")
	}
}

// TestScaledDelayMonotoneInZeta: more damping always means more delay —
// the physical sanity behind Fig. 6's monotone curves.
func TestScaledDelayMonotoneInZeta(t *testing.T) {
	prevD, prevR := 0.0, 0.0
	for z := 0.2; z <= 6; z += 0.2 {
		d, err := ScaledDelay50Numeric(z)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ScaledRiseNumeric(z)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prevD {
			t.Fatalf("scaled delay not increasing at ζ=%g", z)
		}
		if r <= prevR {
			t.Fatalf("scaled rise not increasing at ζ=%g", z)
		}
		prevD, prevR = d, r
	}
}
