// Package core implements the paper's contribution: the equivalent Elmore
// delay for RLC trees. At every node of an RLC tree the exact transfer
// function is approximated by the equivalent second-order system of paper
// eq. (13),
//
//	G_i(s) ≈ 1 / (1 + (2ζ_i/ω_ni)·s + s²/ω_ni²)
//
// with per-node damping factor and natural frequency obtained from the two
// recursive tree summations of the Appendix (eqs. 29–30):
//
//	ω_ni = 1 / sqrt(Σ_k C_k L_ik)
//	ζ_i  = (Σ_k C_k R_ik) / (2·sqrt(Σ_k C_k L_ik))
//
// From this model the package provides the closed forms the paper derives:
// the 50% propagation delay (eq. 33), 10–90% rise time (eq. 34), overshoot
// magnitudes and times (eqs. 39–41), settling time (eq. 42), the full step
// response (eq. 31), and responses to exponential, ramp and piecewise-
// linear inputs (Sec. IV, eqs. 44–48). All expressions are continuous
// across the underdamped/critically-damped/overdamped regimes and collapse
// to the classical Elmore (Wyatt) RC forms as inductance vanishes.
package core

import (
	"fmt"
	"math"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// SecondOrder is the equivalent second-order model at a tree node.
// Construct with FromSums, FromZetaOmega, or the tree analysis in
// AnalyzeTree. The zero value is invalid.
type SecondOrder struct {
	zeta   float64 // damping factor ζ (paper eq. 30); +Inf for RC-only paths
	omegaN float64 // natural frequency ω_n [rad/s] (paper eq. 29); +Inf for RC-only
	tauRC  float64 // Σ_k C_k·R_ik — the Elmore (RC) time constant [s]
	rcOnly bool    // true when Σ_k C_k·L_ik == 0 (first-order/Wyatt limit)

	// degradedReason is non-empty when the second-order form was not
	// used and the model fell back to the first-order RC (Wyatt)
	// characterization — either the exact collapse (Σ C·L = 0, the
	// paper's own limit as inductance vanishes) or a defensive fallback
	// from a non-physical summation. See Degraded. degradedClass is the
	// matching stable short label (one of the Degraded* constants) used
	// for metric labels and compact CLI output.
	degradedReason string
	degradedClass  string
}

// Stable short labels for the RC-degradation reasons, used as metric
// labels (eed_core_degraded_total{reason=...}) and in compact CLI output.
// DegradedReason carries the full human-readable explanation.
const (
	// DegradedZeroInductance: Σ C·L was exactly zero — the paper's own
	// limit as inductance vanishes; the RC collapse is exact.
	DegradedZeroInductance = "zero-inductance"
	// DegradedNonPhysical: Σ C·L was NaN, ±Inf or negative; the model
	// fell back defensively.
	DegradedNonPhysical = "non-physical"
	// DegradedDegenerate: the summations overflowed or underflowed so
	// the second-order form was numerically meaningless.
	DegradedDegenerate = "degenerate"
)

// FromSums builds the model from the two tree summations at a node:
// sr = Σ_k C_k·R_ik and sl = Σ_k C_k·L_ik (see rlctree.ElmoreSums).
//
// A node with sl == 0 (no inductance anywhere on/under its path) yields
// the classical first-order Elmore (Wyatt) model, which all methods honor;
// the model reports Degraded with the collapse reason. A degenerate or
// non-physical inductance summation (NaN, ±Inf, negative — e.g. from
// overflowing extractions) likewise degrades to the RC model instead of
// failing, mirroring how eqs. 29–30 collapse to the Elmore form as
// Σ C·L → 0. Only an unusable RC summation sr is a hard error
// (guard.ErrNumeric): without it no delay at all can be produced.
func FromSums(sr, sl float64) (SecondOrder, error) {
	if math.IsNaN(sr) || math.IsInf(sr, 0) || sr < 0 {
		return SecondOrder{}, guard.Newf(guard.ErrNumeric, "core", "invalid RC summation Σ C·R = %g", sr)
	}
	rc := SecondOrder{zeta: math.Inf(1), omegaN: math.Inf(1), tauRC: sr, rcOnly: true}
	if sl == 0 {
		rc.degradedReason = "no inductance on path (Σ C·L = 0): exact collapse to RC Elmore"
		rc.degradedClass = DegradedZeroInductance
		return rc, nil
	}
	if math.IsNaN(sl) || math.IsInf(sl, 0) || sl < 0 {
		rc.degradedReason = fmt.Sprintf("non-physical inductance summation Σ C·L = %g: falling back to RC Elmore", sl)
		rc.degradedClass = DegradedNonPhysical
		return rc, nil
	}
	root := math.Sqrt(sl)
	zeta, omegaN := sr/(2*root), 1/root
	if omegaN == 0 || math.IsInf(omegaN, 0) || math.IsNaN(zeta) || math.IsInf(zeta, 0) {
		// Overflow/underflow of the summations (denormal or enormous
		// Σ C·L, or a ζ that overflows): the second-order form is
		// numerically meaningless.
		rc.degradedReason = fmt.Sprintf("degenerate second-order model (Σ C·R = %g, Σ C·L = %g): falling back to RC Elmore", sr, sl)
		rc.degradedClass = DegradedDegenerate
		return rc, nil
	}
	return SecondOrder{zeta: zeta, omegaN: omegaN, tauRC: sr}, nil
}

// FromZetaOmega builds the model directly from a damping factor and a
// natural frequency, e.g. for a single RLC section where ζ = (R/2)·√(C/L)
// and ω_n = 1/√(LC) (paper eqs. 14–15).
func FromZetaOmega(zeta, omegaN float64) (SecondOrder, error) {
	if !(zeta > 0) || math.IsNaN(omegaN) || !(omegaN > 0) || math.IsInf(omegaN, 0) || math.IsInf(zeta, 0) {
		return SecondOrder{}, fmt.Errorf("core: invalid ζ=%g, ω_n=%g", zeta, omegaN)
	}
	return SecondOrder{zeta: zeta, omegaN: omegaN, tauRC: 2 * zeta / omegaN}, nil
}

// AtNode builds the model for one node of an RLC tree. Each call pays the
// O(n) summation passes; for whole-tree analysis prefer AnalyzeTree, and
// when looping over nodes of an unchanged tree precompute the sums once
// and use AtNodeSums.
func AtNode(s *rlctree.Section) (SecondOrder, error) {
	return AtNodeSums(s.Tree().ElmoreSums(), s)
}

// AtNodeSums builds the model for one node from precomputed tree
// summations (rlctree.Tree.ElmoreSums), in constant time per node.
func AtNodeSums(sums rlctree.Sums, s *rlctree.Section) (SecondOrder, error) {
	i := s.Index()
	if i >= len(sums.SR) || i >= len(sums.SL) {
		return SecondOrder{}, guard.Newf(guard.ErrTopology, "core",
			"sums cover %d sections but node %q has index %d (stale sums?)", len(sums.SR), s.Name(), i)
	}
	return FromSums(sums.SR[i], sums.SL[i])
}

// Zeta returns the damping factor ζ. It is +Inf for an RC-only node.
func (m SecondOrder) Zeta() float64 { return m.zeta }

// OmegaN returns the natural frequency ω_n in rad/s (+Inf for RC-only).
func (m SecondOrder) OmegaN() float64 { return m.omegaN }

// TauRC returns the Elmore time constant Σ_k C_k·R_ik of the node, the
// quantity the classical RC Elmore/Wyatt delay is built from.
func (m SecondOrder) TauRC() float64 { return m.tauRC }

// RCOnly reports whether the node degenerates to the first-order RC model
// (no inductance contributes to its response).
func (m SecondOrder) RCOnly() bool { return m.rcOnly }

// Degraded reports whether the model is a first-order RC (Wyatt) fallback
// rather than a genuine second-order characterization — because the
// inductance summation was exactly zero (the paper's own RC limit) or
// because it was non-physical and the constructor degraded gracefully
// instead of failing. DegradedReason explains which.
func (m SecondOrder) Degraded() bool { return m.degradedReason != "" }

// DegradedReason returns a human-readable explanation of why the model
// fell back to the RC characterization, or "" when it did not.
func (m SecondOrder) DegradedReason() string { return m.degradedReason }

// DegradedClass returns the stable short label for the degradation
// reason (one of the Degraded* constants), or "" when the model is a
// genuine second-order characterization.
func (m SecondOrder) DegradedClass() string { return m.degradedClass }

// Underdamped reports whether the response is non-monotone (ζ < 1), the
// case the classical Elmore delay cannot represent.
func (m SecondOrder) Underdamped() bool { return !m.rcOnly && m.zeta < 1 }

// Stable reports whether the model is stable. By construction (eqs. 29–30
// with non-negative R, L, C) every model produced from a physical RLC tree
// has ζ > 0 and ω_n > 0 and is therefore always stable — one of the key
// advantages the paper claims over moment-matching methods such as AWE.
func (m SecondOrder) Stable() bool {
	if m.rcOnly {
		return m.tauRC >= 0
	}
	return m.zeta > 0 && m.omegaN > 0
}

// Poles returns the two poles of the second-order model,
// s = ω_n(−ζ ± √(ζ²−1)) (paper eq. 16), as complex numbers. For an RC-only
// node both slots hold the single first-order (Wyatt) pole −1/τ.
func (m SecondOrder) Poles() (complex128, complex128) {
	if m.rcOnly {
		p := complex(-1/m.tauRC, 0)
		return p, p
	}
	if m.zeta >= 1 {
		d := math.Sqrt(m.zeta*m.zeta - 1)
		return complex(m.omegaN*(-m.zeta+d), 0), complex(m.omegaN*(-m.zeta-d), 0)
	}
	d := math.Sqrt(1 - m.zeta*m.zeta)
	return complex(-m.omegaN*m.zeta, m.omegaN*d), complex(-m.omegaN*m.zeta, -m.omegaN*d)
}

// TransferFunction evaluates the model's transfer function at a complex
// frequency s.
func (m SecondOrder) TransferFunction(s complex128) complex128 {
	if m.rcOnly {
		return 1 / (1 + complex(m.tauRC, 0)*s)
	}
	wn := complex(m.omegaN, 0)
	return wn * wn / (s*s + complex(2*m.zeta*m.omegaN, 0)*s + wn*wn)
}

func (m SecondOrder) String() string {
	if m.rcOnly {
		return fmt.Sprintf("SecondOrder(RC-only τ=%.4g s)", m.tauRC)
	}
	return fmt.Sprintf("SecondOrder(ζ=%.4g ω_n=%.4g rad/s)", m.zeta, m.omegaN)
}
