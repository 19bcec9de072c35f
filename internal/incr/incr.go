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
// to rlctree.Tree.ElmoreSums on its tree. Floating-point addition is not
// associative, so the kernel never applies additive deltas to stored
// sums; instead every update recomputes the affected values through the
// same recurrences in the same accumulation order as the from-scratch pass
// (children folded in descending index order, the node's own term last;
// S_R(i) = S_R(parent) + R_i·Ctot(i)), restricted to the dirty region.
// S_R/S_L refreshes are eager for R/L edits (O(subtree)) and lazy for C
// edits: a capacitance edit refolds Ctot along path(x) and marks the sums
// stale, after which single-sink queries walk the sink's path in O(depth)
// and whole-tree queries re-sweep once in O(n).
//
// # A view over one tree
//
// A State reads R, L, C and the parent indices of its tree through
// rlctree.Tree.Arrays, the tree's own arrays, and keeps only what it
// derives from them: Ctot, S_R, S_L and the child lists in fold order. It
// makes every edit itself: SetR/SetL/SetC and the structural ops
// AttachLeaf, AttachSubtree, Detach and SplitSection (structural.go) each
// run the tree op once and then repair the derived arrays. An edit made on
// the tree directly, around the state, moves the tree's generation
// without it; the state then rebuilds its derived arrays from the tree at
// its next call, one O(n) resync counted in eed_incr_resyncs_total (and in
// eed_incr_structural_resyncs_total when the missed edits changed the
// topology).
//
// State is not safe for concurrent use, and neither is its tree.
package incr

import (
	"slices"

	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

var (
	mResyncs = obs.Default().Counter("eed_incr_resyncs_total",
		"Full state rebuilds of a session whose tree was edited around it, not through it.")
	mStructResyncs = obs.Default().Counter("eed_incr_structural_resyncs_total",
		"Full state rebuilds whose edits made around the session included a structural change.")
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

// State is the incremental view of one tree: the summations and what it
// takes to keep them, in flat arrays indexed by section index. Build one
// with New, edit the tree through SetR/SetL/SetC and the structural ops,
// and read sums with SumsAt or Sums.
type State struct {
	tree *rlctree.Tree
	gen  uint64 // tree generation the derived arrays reflect

	// First-child/next-sibling adjacency in descending index order, so a
	// traversal from childHead visits children exactly in the fold order
	// of the from-scratch bottom-up Ctot pass.
	childHead []int32
	childNext []int32

	ctot      []float64 // always exact (bit-identical to DownstreamCaps)
	sr, sl    []float64 // valid only when srslValid
	srslValid bool

	// pathBuf is scratch for path and subtree walks, reused across calls.
	pathBuf []int32

	stats Stats
}

// New builds a State over t and computes the initial summations with the
// same O(n) passes as ElmoreSums.
func New(t *rlctree.Tree) (*State, error) {
	s := &State{tree: t}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of sections the derived arrays cover.
func (s *State) Len() int { return len(s.ctot) }

// Stats returns the work counters accumulated so far.
func (s *State) Stats() Stats { return s.stats }

// build derives everything from the tree as it stands — child lists,
// Ctot and both sums — and takes the tree's generation.
func (s *State) build() error {
	if s.tree.Len() == 0 {
		return guard.Newf(guard.ErrTopology, "incr", "empty tree")
	}
	s.rederive()
	s.sweepSums()
	s.gen = s.tree.Gen()
	return nil
}

// sync rebuilds the derived arrays when the tree was edited around the
// state, i.e. its generation moved without the state: one O(n) resync,
// also counted as structural when the missed edits changed the topology
// (rlctree.Tree.StructuralSince).
func (s *State) sync() error {
	if s.gen == s.tree.Gen() {
		return nil
	}
	structural := s.tree.StructuralSince(s.gen)
	if err := s.build(); err != nil {
		return err
	}
	mResyncs.Inc()
	if structural {
		mStructResyncs.Inc()
	}
	return nil
}

// at brings the state in step with its tree and checks that i names one
// of its sections.
func (s *State) at(i int) error {
	if err := s.sync(); err != nil {
		return err
	}
	if i < 0 || i >= len(s.ctot) {
		return guard.Newf(guard.ErrTopology, "incr", "section index %d out of range [0, %d)", i, len(s.ctot))
	}
	return nil
}

// resize returns a with length n and its first len(a) elements; any
// others are the caller's to fill. Storage grows geometrically, so
// attaching one section at a time costs amortized O(1) here.
func resize[E any](a []E, n int) []E {
	if n <= cap(a) {
		return a[:n]
	}
	b := make([]E, n, max(n, 2*cap(a)))
	copy(b, a)
	return b
}

// rederive sizes the derived arrays to the tree, rebuilds every child
// list and refolds every Ctot, leaving the sums stale: the O(n) repair
// for an edit that renumbered sections.
func (s *State) rederive() {
	_, _, c, parent := s.tree.Arrays()
	s.size(len(parent))
	s.link(0, parent)
	for w := len(parent) - 1; w >= 0; w-- {
		s.fold(int32(w), c)
	}
	s.srslValid = false
}

// size sets the length of every derived array to n.
func (s *State) size(n int) {
	s.childHead, s.childNext = resize(s.childHead, n), resize(s.childNext, n)
	s.ctot, s.sr, s.sl = resize(s.ctot, n), resize(s.sr, n), resize(s.sl, n)
}

// link gives sections [from, n) empty child lists and pushes each onto
// its parent's. Pushing in ascending index order leaves every list in
// descending order, new children ahead of older smaller-index ones.
func (s *State) link(from int, parent []int32) {
	for i := from; i < len(parent); i++ {
		s.childHead[i], s.childNext[i] = -1, -1
		if p := parent[i]; p >= 0 {
			s.childNext[i] = s.childHead[p]
			s.childHead[p] = int32(i)
		}
	}
}

// fold recomputes Ctot(w) in the from-scratch order: its children's Ctot
// in descending index order, then its own C.
func (s *State) fold(w int32, c []float64) {
	acc := 0.0
	for ch := s.childHead[w]; ch >= 0; ch = s.childNext[ch] {
		acc += s.ctot[ch]
	}
	s.ctot[w] = acc + c[w]
}

// refoldPath recomputes Ctot(w) for every section on the input→w path.
// This is the O(depth·fanout) repair step shared by capacitance edits and
// the structural operations (structural.go), whose effect on the rest of
// the tree is exactly a Ctot change along one path. A negative w is a
// no-op (the input node holds no Ctot).
func (s *State) refoldPath(w int32) {
	_, _, c, parent := s.tree.Arrays()
	for ; w >= 0; w = parent[w] {
		s.fold(w, c)
	}
}

// sweepSums recomputes S_R and S_L for every node from the maintained
// Ctot, in the exact order of ElmoreSums' top-down pass.
func (s *State) sweepSums() {
	r, l, _, parent := s.tree.Arrays()
	for i := range s.sr {
		var baseR, baseL float64
		if p := parent[i]; p >= 0 {
			baseR = s.sr[p]
			baseL = s.sl[p]
		}
		s.sr[i] = baseR + r[i]*s.ctot[i]
		s.sl[i] = baseL + l[i]*s.ctot[i]
	}
	s.srslValid = true
}

// refreshSubtree recomputes sums[j] = sums[parent(j)] + elem[j]·Ctot(j)
// over the subtree of x in topological (parent-first DFS) order — the
// eager O(subtree) refresh for an R or L edit.
func (s *State) refreshSubtree(x int, elem, sums []float64) {
	_, _, _, parent := s.tree.Arrays()
	s.pathBuf = append(s.pathBuf[:0], int32(x))
	for len(s.pathBuf) > 0 {
		j := s.pathBuf[len(s.pathBuf)-1]
		s.pathBuf = s.pathBuf[:len(s.pathBuf)-1]
		var base float64
		if p := parent[j]; p >= 0 {
			base = sums[p]
		}
		sums[j] = base + elem[j]*s.ctot[j]
		for ch := s.childHead[j]; ch >= 0; ch = s.childNext[ch] {
			s.pathBuf = append(s.pathBuf, ch)
		}
	}
	s.stats.SubtreeUpdates++
}

// set makes one element edit on the tree with setter and reports whether
// it moved the tree's generation, counting it in count if so. A refused
// or no-op edit changes nothing.
func (s *State) set(i int, v float64, setter func(*rlctree.Section, float64) error, count *uint64) (bool, error) {
	if err := s.at(i); err != nil {
		return false, err
	}
	if err := setter(s.tree.Sections()[i], v); err != nil || s.tree.Gen() == s.gen {
		return false, err
	}
	s.gen = s.tree.Gen()
	*count++
	return true, nil
}

// SetR changes the series resistance of section i on the tree. Ctot and
// S_L are unaffected; S_R is refreshed eagerly over subtree(i) when the
// sums are currently valid (O(subtree)), and deferred to the next query
// otherwise.
func (s *State) SetR(i int, v float64) error {
	moved, err := s.set(i, v, (*rlctree.Section).SetR, &s.stats.EditsR)
	if moved && s.srslValid {
		r, _, _, _ := s.tree.Arrays()
		s.refreshSubtree(i, r, s.sr)
	}
	return err
}

// SetL changes the series inductance of section i; symmetric to SetR with
// S_L in place of S_R.
func (s *State) SetL(i int, v float64) error {
	moved, err := s.set(i, v, (*rlctree.Section).SetL, &s.stats.EditsL)
	if moved && s.srslValid {
		_, l, _, _ := s.tree.Arrays()
		s.refreshSubtree(i, l, s.sl)
	}
	return err
}

// SetC changes the node capacitance of section i on the tree. Ctot is
// refolded exactly along path(i) in O(depth·fanout). The S_R/S_L arrays
// are marked stale (a ΔC perturbs the sums of every node sharing a path
// prefix with i, by exactly R_ix·ΔC); they are refreshed lazily by the
// next SumsAt (O(depth)) or Sums (O(n)) query.
func (s *State) SetC(i int, v float64) error {
	moved, err := s.set(i, v, (*rlctree.Section).SetC, &s.stats.EditsC)
	if moved {
		s.refoldPath(int32(i))
		s.srslValid = false
	}
	return err
}

// SumsAt returns S_R(i), S_L(i) and Ctot(i) for one node. When the sums
// are valid this is an array read; after a capacitance edit it walks the
// node's input→i path once — O(depth), the single-sink query cost the
// whole incremental design exists for — folding the recurrence in the
// exact from-scratch order, without revalidating the rest of the tree.
func (s *State) SumsAt(i int) (sr, sl, ctot float64, err error) {
	if err := s.at(i); err != nil {
		return 0, 0, 0, err
	}
	if s.srslValid {
		return s.sr[i], s.sl[i], s.ctot[i], nil
	}
	r, l, _, parent := s.tree.Arrays()
	s.pathBuf = s.pathBuf[:0]
	for w := int32(i); w >= 0; w = parent[w] {
		s.pathBuf = append(s.pathBuf, w)
	}
	for k := len(s.pathBuf) - 1; k >= 0; k-- {
		w := s.pathBuf[k]
		sr = sr + r[w]*s.ctot[w]
		sl = sl + l[w]*s.ctot[w]
	}
	s.stats.PathQueries++
	return sr, sl, s.ctot[i], nil
}

// Sums returns the full summations, re-sweeping S_R/S_L once in O(n) if a
// capacitance edit left them stale. The returned slices are copies; the
// result is bit-identical to ElmoreSums on the tree. It fails, as SumsAt
// does, when the tree was emptied around the state.
func (s *State) Sums() (rlctree.Sums, error) {
	if err := s.sync(); err != nil {
		return rlctree.Sums{}, err
	}
	if !s.srslValid {
		s.sweepSums()
		s.stats.FullSweeps++
	}
	return rlctree.Sums{
		SR:   slices.Clone(s.sr),
		SL:   slices.Clone(s.sl),
		Ctot: slices.Clone(s.ctot),
	}, nil
}
