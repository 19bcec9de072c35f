package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

func TestFromSumsValidation(t *testing.T) {
	// An unusable RC summation is a hard error: nothing can be salvaged.
	for _, sr := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := FromSums(sr, 0)
		if err == nil {
			t.Fatalf("FromSums(%g, 0): expected error", sr)
		}
		if !errors.Is(err, guard.ErrNumeric) {
			t.Errorf("FromSums(%g, 0): error %v not classed guard.ErrNumeric", sr, err)
		}
	}
	// A non-physical inductance summation, or one whose ζ overflows,
	// degrades to the RC (Wyatt) model instead of failing: the RC part of
	// the characterization is still trustworthy.
	for _, in := range [][2]float64{{1e-9, -1}, {1e-9, math.NaN()}, {1e-9, math.Inf(1)}, {1e300, 1e-200}} {
		sr, sl := in[0], in[1]
		m, err := FromSums(sr, sl)
		if err != nil {
			t.Fatalf("FromSums(%g, %g): unexpected error %v", sr, sl, err)
		}
		if !m.RCOnly() || !m.Degraded() || m.DegradedReason() == "" {
			t.Errorf("FromSums(%g, %g): want degraded RC fallback, got %v (reason %q)",
				sr, sl, m, m.DegradedReason())
		}
		if got, want := m.Delay50(), math.Ln2*sr; got != want {
			t.Errorf("FromSums(%g, %g): Delay50 = %g, want Wyatt %g", sr, sl, got, want)
		}
	}
}

func TestFromSumsDegradedFlag(t *testing.T) {
	// Σ C·L = 0 is the paper's own RC limit: RC-only and flagged Degraded
	// with the collapse reason.
	m, err := FromSums(1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RCOnly() || !m.Degraded() {
		t.Fatalf("FromSums(1e-9, 0): want RC-only degraded model, got %v", m)
	}
	if !strings.Contains(m.DegradedReason(), "Σ C·L = 0") {
		t.Fatalf("reason %q does not name the collapse", m.DegradedReason())
	}
	// A genuine second-order model is not degraded.
	m2, err := FromSums(1e-9, 1e-19)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Degraded() || m2.DegradedReason() != "" {
		t.Fatalf("second-order model wrongly degraded: %q", m2.DegradedReason())
	}
}

// TestSingleSectionMatchesEq14And15: for a single RLC section the model
// must reduce to ζ = (R/2)·√(C/L) and ω_n = 1/√(LC) (paper eqs. 14–15).
func TestSingleSectionMatchesEq14And15(t *testing.T) {
	r, l, c := 40.0, 10e-9, 100e-15
	tr := rlctree.New()
	s := tr.MustAddSection("s1", nil, r, l, c)
	m, err := AtNode(s)
	if err != nil {
		t.Fatal(err)
	}
	wantZeta := (r / 2) * math.Sqrt(c/l)
	wantWn := 1 / math.Sqrt(l*c)
	if math.Abs(m.Zeta()-wantZeta) > 1e-12*wantZeta {
		t.Fatalf("ζ = %g, want %g", m.Zeta(), wantZeta)
	}
	if math.Abs(m.OmegaN()-wantWn) > 1e-3 {
		t.Fatalf("ω_n = %g, want %g", m.OmegaN(), wantWn)
	}
	if math.Abs(m.TauRC()-r*c) > 1e-24 {
		t.Fatalf("τ = %g, want %g", m.TauRC(), r*c)
	}
}

func TestRCOnlyDegeneratesToWyatt(t *testing.T) {
	m, err := FromSums(1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RCOnly() {
		t.Fatal("expected RC-only model")
	}
	if m.Underdamped() {
		t.Fatal("RC-only is never underdamped")
	}
	if !m.Stable() {
		t.Fatal("RC-only must be stable")
	}
	if got, want := m.Delay50(), math.Ln2*1e-9; math.Abs(got-want) > 1e-20 {
		t.Fatalf("Delay50 = %g, want Wyatt %g", got, want)
	}
	if got, want := m.RiseTime(), math.Log(9)*1e-9; math.Abs(got-want) > 1e-20 {
		t.Fatalf("RiseTime = %g, want Wyatt %g", got, want)
	}
	if m.Overshoot(1) != 0 {
		t.Fatal("RC-only overshoot must be 0")
	}
	if !math.IsInf(m.OvershootTime(1), 1) {
		t.Fatal("RC-only overshoot time must be +Inf")
	}
	if !strings.Contains(m.String(), "RC-only") {
		t.Fatalf("String: %q", m.String())
	}
}

func TestFromZetaOmegaValidation(t *testing.T) {
	for _, c := range []struct{ z, w float64 }{
		{0, 1}, {-1, 1}, {1, 0}, {1, -2}, {1, math.Inf(1)}, {math.Inf(1), 1}, {math.NaN(), 1},
	} {
		if _, err := FromZetaOmega(c.z, c.w); err == nil {
			t.Errorf("FromZetaOmega(%g, %g): expected error", c.z, c.w)
		}
	}
	m, err := FromZetaOmega(0.7, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Underdamped() || !m.Stable() {
		t.Fatal("ζ=0.7 model must be stable and underdamped")
	}
	if got, want := m.TauRC(), 2*0.7/2e9; math.Abs(got-want) > 1e-20 {
		t.Fatalf("TauRC = %g, want %g", got, want)
	}
}

func TestPoles(t *testing.T) {
	// Underdamped: complex conjugate pair at −ζω ± iω√(1−ζ²).
	m, _ := FromZetaOmega(0.5, 1)
	p1, p2 := m.Poles()
	if math.Abs(real(p1)+0.5) > 1e-12 || math.Abs(imag(p1)-math.Sqrt(0.75)) > 1e-12 {
		t.Fatalf("underdamped pole %v wrong", p1)
	}
	if p2 != cmplx.Conj(p1) {
		t.Fatal("poles must be conjugates")
	}
	// Overdamped: two real poles whose product is ω_n² and sum −2ζω_n.
	m2, _ := FromZetaOmega(2, 3)
	q1, q2 := m2.Poles()
	if imag(q1) != 0 || imag(q2) != 0 {
		t.Fatal("overdamped poles must be real")
	}
	if math.Abs(real(q1)*real(q2)-9) > 1e-9 {
		t.Fatalf("pole product %g, want ω_n²=9", real(q1)*real(q2))
	}
	if math.Abs(real(q1)+real(q2)+12) > 1e-9 {
		t.Fatalf("pole sum %g, want −2ζω_n=−12", real(q1)+real(q2))
	}
	// RC-only: single pole −1/τ in both slots.
	m3, _ := FromSums(2e-9, 0)
	r1, r2 := m3.Poles()
	if r1 != r2 || math.Abs(real(r1)+0.5e9) > 1 || imag(r1) != 0 {
		t.Fatalf("RC poles = %v, %v", r1, r2)
	}
}

func TestTransferFunctionDCGainAndPoles(t *testing.T) {
	m, _ := FromZetaOmega(1.3, 1e9)
	if g := m.TransferFunction(0); cmplx.Abs(g-1) > 1e-12 {
		t.Fatalf("DC gain = %v, want 1", g)
	}
	p1, _ := m.Poles()
	if g := cmplx.Abs(m.TransferFunction(p1 + 1e-3)); g < 1e3 {
		t.Fatalf("|H| near pole = %g, should blow up", g)
	}
	rc, _ := FromSums(1e-9, 0)
	if g := rc.TransferFunction(0); cmplx.Abs(g-1) > 1e-12 {
		t.Fatalf("RC DC gain = %v, want 1", g)
	}
}

// Property (paper Sec. VI): the model built from any physical RLC tree is
// always stable — ζ > 0, ω_n > 0 — regardless of topology or element
// values, unlike AWE-style moment matching.
func TestAlwaysStableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 1+rng.Intn(60))
		analyses, err := AnalyzeTree(tr)
		if err != nil {
			return false
		}
		for _, a := range analyses {
			if !a.Model.Stable() {
				return false
			}
			if !a.Model.RCOnly() && (a.Model.Zeta() <= 0 || a.Model.OmegaN() <= 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomTree(rng *rand.Rand, n int) *rlctree.Tree {
	tr := rlctree.New()
	var all []*rlctree.Section
	for i := 0; i < n; i++ {
		var parent *rlctree.Section
		if len(all) > 0 && rng.Float64() < 0.8 {
			parent = all[rng.Intn(len(all))]
		}
		name := "s" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		// Ensure a strictly positive capacitance somewhere so sums are
		// non-degenerate; allow zero R/L sections.
		s := tr.MustAddSection(name, parent,
			rng.Float64()*100, rng.Float64()*10e-9, 1e-18+rng.Float64()*200e-15)
		all = append(all, s)
	}
	return tr
}

// TestZetaDecreasesWithInductance (paper Sec. III): increasing inductance
// decreases ζ, pushing the response toward the underdamped regime.
func TestZetaDecreasesWithInductance(t *testing.T) {
	prev := math.Inf(1)
	for _, l := range []float64{1e-10, 1e-9, 5e-9, 2e-8} {
		tr, err := rlctree.Line("w", 5, rlctree.SectionValues{R: 10, L: l, C: 50e-15})
		if err != nil {
			t.Fatal(err)
		}
		sums := tr.ElmoreSums()
		sink := tr.Leaves()[0].Index()
		m, err := FromSums(sums.SR[sink], sums.SL[sink])
		if err != nil {
			t.Fatal(err)
		}
		if m.Zeta() >= prev {
			t.Fatalf("ζ did not decrease with L: %g then %g", prev, m.Zeta())
		}
		prev = m.Zeta()
	}
}
