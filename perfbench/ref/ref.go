// Package ref is the benchmark's own implementation of the equivalent
// Elmore delay, written from the paper and independent of the program
// under test: it imports nothing from eedtree. The benchmark checks the
// program's outputs against it.
//
// A tree is a parent array in topological order (every parent index is
// below its child's; -1 attaches a section to the input node). The
// Appendix sums are two linear passes over that array, in the dynamic
// programming shape of the classic Elmore evaluators: a reverse pass
// accumulates downstream capacitance, a forward pass accumulates
// Σ C·R and Σ C·L along the path from the input.
package ref

import "math"

// Tree is an RLC tree as flat arrays. Section i has series R[i], L[i]
// and a grounded C[i] at its far node.
type Tree struct {
	Parent  []int32
	R, L, C []float64
}

// Len is the number of sections.
func (t *Tree) Len() int { return len(t.Parent) }

// Add appends a section and returns its index.
func (t *Tree) Add(parent int32, r, l, c float64) int32 {
	t.Parent = append(t.Parent, parent)
	t.R = append(t.R, r)
	t.L = append(t.L, l)
	t.C = append(t.C, c)
	return int32(len(t.Parent) - 1)
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	return &Tree{
		Parent: append([]int32(nil), t.Parent...),
		R:      append([]float64(nil), t.R...),
		L:      append([]float64(nil), t.L...),
		C:      append([]float64(nil), t.C...),
	}
}

// Leaves reports which sections have no children.
func (t *Tree) Leaves() []bool {
	leaf := make([]bool, t.Len())
	for i := range leaf {
		leaf[i] = true
	}
	for _, p := range t.Parent {
		if p >= 0 {
			leaf[p] = false
		}
	}
	return leaf
}

// Sums holds, per node, the downstream capacitance Ctot and the two
// path sums of the paper's Appendix: SR = Σ_k C_k·R_ik and
// SL = Σ_k C_k·L_ik, where R_ik (L_ik) is the resistance (inductance)
// common to the input→i and input→k paths.
type Sums struct {
	Ctot, SR, SL []float64
}

// ComputeSums runs the two O(n) passes.
func ComputeSums(t *Tree) Sums {
	var s Sums
	s.Compute(t)
	return s
}

// Compute runs the two O(n) passes into s, reusing its storage.
func (s *Sums) Compute(t *Tree) {
	n := t.Len()
	s.Ctot, s.SR, s.SL = grow(s.Ctot, n), grow(s.SR, n), grow(s.SL, n)
	copy(s.Ctot, t.C)
	for i := n - 1; i >= 0; i-- {
		if p := t.Parent[i]; p >= 0 {
			s.Ctot[p] += s.Ctot[i]
		}
	}
	for i := 0; i < n; i++ {
		var sr, sl float64
		if p := t.Parent[i]; p >= 0 {
			sr, sl = s.SR[p], s.SL[p]
		}
		s.SR[i] = sr + t.R[i]*s.Ctot[i]
		s.SL[i] = sl + t.L[i]*s.Ctot[i]
	}
}

func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// Published coefficients of the fitted 50% delay, paper eq. (33):
// t'_pd(ζ) = A·e^(−ζ/B) + C·ζ with t' = ω_n·t.
const (
	fitA = 1.047
	fitB = 0.85
	fitC = 1.39
)

// Node is the second-order characterization of one node.
type Node struct {
	Zeta, OmegaN float64 // +Inf for an RC-only node
	Delay        float64 // 50% step delay [s]
	Elmore       float64 // classical RC Elmore 50% delay, ln2·Σ C·R [s]
	RCOnly       bool
}

// At applies eqs. (29), (30) and (33) to one node's sums:
// ω_n = 1/√(Σ C·L), ζ = Σ C·R / (2√(Σ C·L)), t_pd = t'_pd(ζ)/ω_n. A node
// with Σ C·L = 0 has no second-order form; its delay is the Elmore delay
// 0.693·Σ C·R (ln 2, to the paper's three digits).
func At(sr, sl float64) Node {
	n := Node{Elmore: math.Ln2 * sr}
	if sl == 0 {
		n.Zeta, n.OmegaN = math.Inf(1), math.Inf(1)
		n.Delay = n.Elmore
		n.RCOnly = true
		return n
	}
	root := math.Sqrt(sl)
	n.OmegaN = 1 / root
	n.Zeta = sr / (2 * root)
	n.Delay = (fitA*math.Exp(-n.Zeta/fitB) + fitC*n.Zeta) / n.OmegaN
	return n
}

// Analyze characterizes every node of the tree.
func Analyze(t *Tree) []Node {
	return AnalyzeInto(t, &Sums{}, nil)
}

// AnalyzeInto is Analyze reusing the storage of s and out.
func AnalyzeInto(t *Tree, s *Sums, out []Node) []Node {
	s.Compute(t)
	if cap(out) < t.Len() {
		out = make([]Node, t.Len())
	}
	out = out[:t.Len()]
	for i := range out {
		out[i] = At(s.SR[i], s.SL[i])
	}
	return out
}

// Delays returns every node's 50% delay.
func Delays(t *Tree) []float64 {
	s := ComputeSums(t)
	out := make([]float64, t.Len())
	for i := range out {
		out[i] = At(s.SR[i], s.SL[i]).Delay
	}
	return out
}

// Close reports whether got agrees with want to a relative tolerance,
// with exact equality required for zero and matching infinities.
func Close(got, want, rel float64) bool {
	if got == want {
		return true
	}
	if math.IsNaN(got) || math.IsNaN(want) || math.IsInf(got, 0) || math.IsInf(want, 0) {
		return false
	}
	return math.Abs(got-want) <= rel*math.Max(math.Abs(got), math.Abs(want))
}
