// Package incr is the incremental analysis kernel: it keeps the paper's
// two per-node summations S_R and S_L (Appendix, eqs. 50–53) live across
// element edits of an RLC tree instead of recomputing them from zero. The
// summations are recursively maintainable — that is the paper's central
// observation — so a synthesis loop that perturbs one element per
// candidate pays O(depth) (or O(subtree)) per edit, not the O(n) two-pass
// sweep plus tree rebuild that a from-scratch evaluation costs.
//
// # Delta-update rules
//
// Write path(i) for the sections from the input to node i inclusive, and
// Ctot(w) for the total capacitance at or below section w. The Appendix
// recursions give
//
//	S_R(i) = Σ_{w ∈ path(i)} R_w·Ctot(w)
//	S_L(i) = Σ_{w ∈ path(i)} L_w·Ctot(w)
//
// From these, three exact perturbation rules follow:
//
//   - ΔR on section x: Ctot is unchanged, and x ∈ path(i) iff i is in the
//     subtree of x, so S_R(i) changes by ΔR·Ctot(x) exactly for the nodes
//     of subtree(x) — an O(subtree) update (S_L is untouched). For a
//     single queried sink the change is O(1) given Ctot: either x is on
//     the sink's path (add ΔR·Ctot(x)) or the sum is unchanged.
//
//   - ΔL on section x: symmetric, S_L(i) += ΔL·Ctot(x) over subtree(x).
//
//   - ΔC on section x: Ctot(w) changes by ΔC exactly for w ∈ path(x), so
//     S_R(i) changes by ΔC·Σ_{w ∈ path(i) ∩ path(x)} R_w = ΔC·R_ix — the
//     common-path resistance of i and x (and S_L(i) by ΔC·L_ix). A
//     capacitance edit therefore touches the sums of every node sharing
//     any path prefix with x; maintaining Ctot costs O(depth) and a
//     single-sink sum query costs O(depth), while refreshing all n sums
//     costs the same O(n) as one from-scratch top-down pass.
//
// # Bit-identical contract
//
// State guarantees that after any edit sequence its sums are bit-identical
// to rlctree.Tree.ElmoreSums on the equivalently edited tree. Floating-
// point addition is not associative, so the kernel never applies additive
// deltas to stored sums; instead every update recomputes the affected
// values through the same recurrences in the same accumulation order as
// the from-scratch pass (children folded in descending index order, the
// node's own term last; S_R(i) = S_R(parent) + R_i·Ctot(i)), restricted to
// the dirty region. S_R/S_L refreshes are eager for R/L edits (O(subtree))
// and lazy for C edits: a capacitance edit refolds Ctot along path(x) and
// marks the sums stale, after which single-sink queries walk the sink's
// path in O(depth) and whole-tree queries re-sweep once in O(n).
//
// # Keeping a State in step with its tree
//
// A State holds no reference to the tree it was built from and sees no
// edit by itself. Each mutation of rlctree.Tree has a twin here that
// takes the same arguments: SetR/SetL/SetC for the element setters, and
// Attach, Detach and Split for the structural ops (structural.go).
// Running the tree op and then its twin keeps the state bit-identical to
// New on the edited tree; engine.Session pairs them for every edit made
// through it. An edit made on the tree alone leaves the state behind, and
// the only remedy is a rebuild with New, which the session makes (and
// counts) when it sees the tree's generation moved without it.
//
// State is not safe for concurrent use.
package incr

import (
	"math"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// Stats counts the work a State has performed, for tests and for the
// session-level metrics in internal/engine.
type Stats struct {
	EditsR, EditsL, EditsC uint64 // applied (non-no-op) element edits
	SubtreeUpdates         uint64 // eager O(subtree) S_R/S_L refreshes
	PathQueries            uint64 // lazy O(depth) single-sink sum queries
	FullSweeps             uint64 // lazy O(n) whole-tree S_R/S_L re-sweeps

	// Structural edits folded in place (structural.go).
	Attaches, Detaches, Splits uint64
}

// State is a mutable snapshot of a tree's element values and summations in
// flat structure-of-arrays form. Build one with New, mutate it with
// SetR/SetL/SetC and the structural ops Attach/Detach/Split, and read sums
// with SumsAt or Sums. It holds no reference to the source tree: whoever
// edits the tree makes the same edit here (internal/engine's Session does
// so for every edit it is asked to make).
type State struct {
	parent []int32
	// First-child/next-sibling adjacency in descending index order, so a
	// traversal from childHead visits children exactly in the fold order
	// of the from-scratch bottom-up Ctot pass.
	childHead []int32
	childNext []int32

	r, l, c   []float64
	ctot      []float64 // always exact (bit-identical to DownstreamCaps)
	sr, sl    []float64 // valid only when srslValid
	srslValid bool

	// pathBuf is scratch for SumsAt path walks, reused across queries.
	pathBuf []int32

	stats Stats
}

// New builds a State from the tree's current element values and computes
// the initial summations with the same O(n) passes as ElmoreSums.
func New(t *rlctree.Tree) (*State, error) {
	n := t.Len()
	if n == 0 {
		return nil, guard.Newf(guard.ErrTopology, "incr", "empty tree")
	}
	r, l, c, parent := t.Arrays()
	s := &State{
		parent:    parent,
		childHead: make([]int32, n),
		childNext: make([]int32, n),
		r:         r,
		l:         l,
		c:         c,
		ctot:      make([]float64, n),
		sr:        make([]float64, n),
		sl:        make([]float64, n),
	}
	for i := range s.childHead {
		s.childHead[i] = -1
		s.childNext[i] = -1
	}
	// Ascending insertion order pushes each child onto its parent's list
	// head, leaving the largest index first — descending traversal order.
	for i := 0; i < n; i++ {
		if p := parent[i]; p >= 0 {
			s.childNext[i] = s.childHead[p]
			s.childHead[p] = int32(i)
		}
	}
	// Initial Ctot: identical accumulation order to DownstreamCaps.
	for i := n - 1; i >= 0; i-- {
		s.ctot[i] += c[i]
		if p := parent[i]; p >= 0 {
			s.ctot[p] += s.ctot[i]
		}
	}
	s.sweepSums()
	return s, nil
}

// Len returns the number of sections the state covers.
func (s *State) Len() int { return len(s.r) }

// Stats returns the work counters accumulated so far.
func (s *State) Stats() Stats { return s.stats }

// sweepSums recomputes S_R and S_L for every node from the maintained
// Ctot, in the exact order of ElmoreSums' top-down pass.
func (s *State) sweepSums() {
	for i := range s.sr {
		var baseR, baseL float64
		if p := s.parent[i]; p >= 0 {
			baseR = s.sr[p]
			baseL = s.sl[p]
		}
		s.sr[i] = baseR + s.r[i]*s.ctot[i]
		s.sl[i] = baseL + s.l[i]*s.ctot[i]
	}
	s.srslValid = true
}

func (s *State) checkEdit(i int, v float64) error {
	if i < 0 || i >= len(s.r) {
		return guard.Newf(guard.ErrTopology, "incr", "section index %d out of range [0, %d)", i, len(s.r))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return guard.Newf(guard.ErrNumeric, "incr", "invalid element value %g at index %d", v, i)
	}
	return nil
}

// refreshSubtree recomputes sums[j] = sums[parent(j)] + elem[j]·Ctot(j)
// over the subtree of x in topological (parent-first DFS) order — the
// eager O(subtree) refresh for an R or L edit.
func (s *State) refreshSubtree(x int, elem, sums []float64) {
	s.pathBuf = append(s.pathBuf[:0], int32(x))
	for len(s.pathBuf) > 0 {
		j := s.pathBuf[len(s.pathBuf)-1]
		s.pathBuf = s.pathBuf[:len(s.pathBuf)-1]
		var base float64
		if p := s.parent[j]; p >= 0 {
			base = sums[p]
		}
		sums[j] = base + elem[j]*s.ctot[j]
		for ch := s.childHead[j]; ch >= 0; ch = s.childNext[ch] {
			s.pathBuf = append(s.pathBuf, ch)
		}
	}
	s.stats.SubtreeUpdates++
}

// SetR changes the series resistance of section i. Ctot and S_L are
// unaffected; S_R is refreshed eagerly over subtree(i) when the sums are
// currently valid (O(subtree)), and deferred to the next query otherwise.
func (s *State) SetR(i int, v float64) error {
	if err := s.checkEdit(i, v); err != nil {
		return err
	}
	if v == s.r[i] {
		return nil
	}
	s.r[i] = v
	s.stats.EditsR++
	if s.srslValid {
		s.refreshSubtree(i, s.r, s.sr)
	}
	return nil
}

// SetL changes the series inductance of section i; symmetric to SetR with
// S_L in place of S_R.
func (s *State) SetL(i int, v float64) error {
	if err := s.checkEdit(i, v); err != nil {
		return err
	}
	if v == s.l[i] {
		return nil
	}
	s.l[i] = v
	s.stats.EditsL++
	if s.srslValid {
		s.refreshSubtree(i, s.l, s.sl)
	}
	return nil
}

// SetC changes the node capacitance of section i. Ctot is refolded exactly
// along path(i) — each ancestor re-accumulates its children in the same
// descending-index order as the from-scratch bottom-up pass, so the
// maintained Ctot stays bit-identical — in O(depth·fanout). The S_R/S_L
// arrays are marked stale (a ΔC perturbs the sums of every node sharing a
// path prefix with i, by exactly R_ix·ΔC); they are refreshed lazily by
// the next SumsAt (O(depth)) or Sums (O(n)) query.
func (s *State) SetC(i int, v float64) error {
	if err := s.checkEdit(i, v); err != nil {
		return err
	}
	if v == s.c[i] {
		return nil
	}
	s.c[i] = v
	s.stats.EditsC++
	s.refoldPath(int32(i))
	s.srslValid = false
	return nil
}

// refoldPath recomputes Ctot(w) for every section on the input→w path,
// re-accumulating each node's children in the same descending-index order
// as the from-scratch bottom-up pass (own C last), so the maintained Ctot
// stays bit-identical. This is the O(depth·fanout) repair step shared by
// capacitance edits and the structural operations (structural.go), whose
// effect on the rest of the tree is exactly a Ctot change along one path.
// A negative w is a no-op (the input node holds no Ctot).
func (s *State) refoldPath(w int32) {
	for ; w >= 0; w = s.parent[w] {
		acc := 0.0
		for ch := s.childHead[w]; ch >= 0; ch = s.childNext[ch] {
			acc += s.ctot[ch]
		}
		acc += s.c[w]
		s.ctot[w] = acc
	}
}

// SumsAt returns S_R(i), S_L(i) and Ctot(i) for one node. When the sums
// are valid this is an array read; after a capacitance edit it walks the
// node's input→i path once — O(depth), the single-sink query cost the
// whole incremental design exists for — folding the recurrence in the
// exact from-scratch order, without revalidating the rest of the tree.
func (s *State) SumsAt(i int) (sr, sl, ctot float64, err error) {
	if i < 0 || i >= len(s.r) {
		return 0, 0, 0, guard.Newf(guard.ErrTopology, "incr", "section index %d out of range [0, %d)", i, len(s.r))
	}
	if s.srslValid {
		return s.sr[i], s.sl[i], s.ctot[i], nil
	}
	s.pathBuf = s.pathBuf[:0]
	for w := int32(i); w >= 0; w = s.parent[w] {
		s.pathBuf = append(s.pathBuf, w)
	}
	for k := len(s.pathBuf) - 1; k >= 0; k-- {
		w := s.pathBuf[k]
		sr = sr + s.r[w]*s.ctot[w]
		sl = sl + s.l[w]*s.ctot[w]
	}
	s.stats.PathQueries++
	return sr, sl, s.ctot[i], nil
}

// Sums returns the full summations, re-sweeping S_R/S_L once in O(n) if a
// capacitance edit left them stale. The returned slices are copies; the
// result is bit-identical to ElmoreSums on the equivalently edited tree.
func (s *State) Sums() rlctree.Sums {
	if !s.srslValid {
		s.sweepSums()
		s.stats.FullSweeps++
	}
	return rlctree.Sums{
		SR:   append([]float64(nil), s.sr...),
		SL:   append([]float64(nil), s.sl...),
		Ctot: append([]float64(nil), s.ctot...),
	}
}
