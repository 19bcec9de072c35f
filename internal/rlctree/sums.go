package rlctree

// This file implements the recursive algorithms of the paper's Appendix
// ("Complexity of the Second-Order Approximation", Figs. 17 and 18).
//
// The two per-node summations needed by the second-order model are
// (eqs. 50–53):
//
//	S_R(i) = Σ_k C_k R_ik = Σ_{w ∈ path(i)} R_w · C_tot(w)
//	S_L(i) = Σ_k C_k L_ik = Σ_{w ∈ path(i)} L_w · C_tot(w)
//
// where R_ik (L_ik) is the common path resistance (inductance) from the
// input to nodes i and k, and C_tot(w) is the total capacitance downstream
// of section w (inclusive). S_R(i) is exactly the Elmore time constant of
// node i when the tree is treated as an RC tree.
//
// The paper's pseudocode computes the sums in two passes — a bottom-up pass
// for C_tot (Fig. 17, "Cal_Cap_Loads") and a top-down pass accumulating the
// per-path sums (Fig. 18, "Cal_Summations") — for a total of 2n
// multiplications. Because sections are stored in top-down topological
// order (parents precede children), both passes are simple index sweeps
// here, with no recursion-depth limits for very deep trees.

// DownstreamCaps returns, for every section index, the total capacitance
// C_tot hanging at or below that section's node (the Appendix Fig. 17
// quantity). Runs in O(n) with no multiplications, sweeping the tree's
// flat parent-index array with no pointer chasing.
//
// The floating-point accumulation order at each node — children in
// descending index order, the node's own C last — is part of this
// function's contract: the incremental kernel (internal/incr) refolds the
// same order when a capacitance edit dirties a path, which is what makes
// incrementally maintained sums bit-identical to a from-scratch pass.
func (t *Tree) DownstreamCaps() []float64 {
	ctot := make([]float64, len(t.sections))
	parent, c := t.parentIdx, t.c
	for i := len(ctot) - 1; i >= 0; i-- {
		ctot[i] += c[i]
		if p := parent[i]; p >= 0 {
			ctot[p] += ctot[i]
		}
	}
	return ctot
}

// Sums holds the per-node path summations of the Appendix, indexed by
// section index. All three slices have length Tree.Len().
type Sums struct {
	// SR[i] = Σ_k C_k·R_ik, the Elmore time constant at node i [s].
	SR []float64
	// SL[i] = Σ_k C_k·L_ik [s²]; the equivalent natural frequency at node i
	// is ω_n = 1/sqrt(SL[i]).
	SL []float64
	// Ctot[i] is the downstream capacitance of section i [F].
	Ctot []float64
}

// ElmoreSums computes S_R and S_L for every node of the tree with the
// two-pass O(n) algorithm of the paper's Appendix (2n multiplications
// total). The result feeds directly into the second-order model's
// ζ_i and ω_ni (paper eqs. 29–30).
func (t *Tree) ElmoreSums() Sums {
	n := len(t.sections)
	sums := Sums{
		SR:   make([]float64, n),
		SL:   make([]float64, n),
		Ctot: t.DownstreamCaps(),
	}
	parent, r, l := t.parentIdx, t.r, t.l
	for i := 0; i < n; i++ {
		var baseR, baseL float64
		if p := parent[i]; p >= 0 {
			baseR = sums.SR[p]
			baseL = sums.SL[p]
		}
		sums.SR[i] = baseR + r[i]*sums.Ctot[i]
		sums.SL[i] = baseL + l[i]*sums.Ctot[i]
	}
	return sums
}
