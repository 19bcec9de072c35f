package ref

import (
	"math"
	"math/rand"
	"testing"
)

// One RLC section is the two-pole circuit the method is built on: its
// damping and natural frequency have the closed forms ζ = (R/2)·√(C/L)
// and ω_n = 1/√(LC) (paper eqs. 14–15).
func TestSingleSectionClosedForm(t *testing.T) {
	for _, v := range [][3]float64{{25, 1e-9, 50e-15}, {400, 2e-9, 1e-12}, {1, 5e-9, 10e-15}} {
		r, l, c := v[0], v[1], v[2]
		var tr Tree
		tr.Add(-1, r, l, c)
		n := Analyze(&tr)[0]
		if z := r / 2 * math.Sqrt(c/l); !Close(n.Zeta, z, 1e-14) {
			t.Errorf("R=%g L=%g C=%g: ζ = %g, want %g", r, l, c, n.Zeta, z)
		}
		if w := 1 / math.Sqrt(l*c); !Close(n.OmegaN, w, 1e-14) {
			t.Errorf("R=%g L=%g C=%g: ω_n = %g, want %g", r, l, c, n.OmegaN, w)
		}
		want := (1.047*math.Exp(-n.Zeta/0.85) + 1.39*n.Zeta) / n.OmegaN
		if !Close(n.Delay, want, 1e-14) {
			t.Errorf("delay %g, want eq. 33's %g", n.Delay, want)
		}
	}
}

// Without inductance the model is the classical Elmore delay
// 0.693·Σ C_k·R_ik; the common-path resistance is summed here by brute
// force, independently of the two-pass sums.
func TestPureRCLineIsElmore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 12
	var tr Tree
	for i := 0; i < n; i++ {
		tr.Add(int32(i-1), 1+rng.Float64()*50, 0, 1e-15+rng.Float64()*40e-15)
	}
	got := Analyze(&tr)
	for i := 0; i < n; i++ {
		var sum float64
		for k := 0; k < n; k++ {
			var common float64
			for j := 0; j <= min(i, k); j++ {
				common += tr.R[j]
			}
			sum += tr.C[k] * common
		}
		if !got[i].RCOnly {
			t.Fatalf("node %d: RC-only line not flagged", i)
		}
		if !Close(got[i].Delay, 0.693*sum, 1e-3) {
			t.Errorf("node %d: delay %g, want 0.693·ΣRC = %g", i, got[i].Delay, 0.693*sum)
		}
	}
}

// Paper Fig. 10: by symmetry every node of a balanced tree's level ℓ sits
// at the same potential, so the tree collapses into a ladder whose
// level-ℓ section is m = b^(ℓ−1) parallel sections (R/m, L/m, m·C). The
// delays must agree level by level.
func TestBalancedTreeEqualsLadder(t *testing.T) {
	const levels, b = 5, 3
	vals := [][3]float64{{30, 2e-9, 80e-15}, {45, 1.5e-9, 60e-15}, {60, 1e-9, 40e-15}, {90, 0.8e-9, 30e-15}, {120, 0.5e-9, 20e-15}}
	var tree Tree
	level := []int32{-1}
	var tLevel []int
	for l := 0; l < levels; l++ {
		var next []int32
		fan := b
		if l == 0 {
			fan = 1
		}
		for _, p := range level {
			for k := 0; k < fan; k++ {
				next = append(next, tree.Add(p, vals[l][0], vals[l][1], vals[l][2]))
				tLevel = append(tLevel, l)
			}
		}
		level = next
	}
	var ladder Tree
	m := 1.0
	for l := 0; l < levels; l++ {
		if l > 0 {
			m *= b
		}
		ladder.Add(int32(l-1), vals[l][0]/m, vals[l][1]/m, vals[l][2]*m)
	}
	td, ld := Delays(&tree), Delays(&ladder)
	for i, d := range td {
		if !Close(d, ld[tLevel[i]], 1e-12) {
			t.Errorf("tree node %d (level %d): delay %g, ladder %g", i, tLevel[i]+1, d, ld[tLevel[i]])
		}
	}
}

// The sums must match their definition on a random tree: Σ over every
// node k of C_k times the resistance common to the paths to i and k.
func TestSumsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tr Tree
	for i := 0; i < 40; i++ {
		p := int32(-1)
		if i > 0 {
			p = int32(rng.Intn(i))
		}
		tr.Add(p, rng.Float64()*80, rng.Float64()*3e-9, 1e-15+rng.Float64()*90e-15)
	}
	path := func(i int) map[int]bool {
		on := map[int]bool{}
		for j := int32(i); j >= 0; j = tr.Parent[j] {
			on[int(j)] = true
		}
		return on
	}
	s := ComputeSums(&tr)
	for i := 0; i < tr.Len(); i++ {
		pi := path(i)
		var sr, sl float64
		for k := 0; k < tr.Len(); k++ {
			var cr, cl float64
			for j := range path(k) {
				if pi[j] {
					cr += tr.R[j]
					cl += tr.L[j]
				}
			}
			sr += tr.C[k] * cr
			sl += tr.C[k] * cl
		}
		if !Close(s.SR[i], sr, 1e-12) || !Close(s.SL[i], sl, 1e-12) {
			t.Errorf("node %d: sums (%g, %g), definition (%g, %g)", i, s.SR[i], s.SL[i], sr, sl)
		}
	}
}
