package incr

import (
	"slices"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// This file extends the kernel across structural edits. The observation is
// the same one that makes element edits cheap: the summations are path
// accumulations over Ctot, and a structural change — attach a subtree,
// detach one, split a section in place — perturbs Ctot on exactly one
// input→node path. So:
//
//   - attach links the appended sections into the child lists, folds
//     their Ctot bottom-up within the new index range (O(|subtree|)) and
//     refolds Ctot along path(parent) (O(depth)); the new nodes' S_R/S_L
//     seed from the parent's path sums through the ordinary lazy query
//     path;
//   - detach of an index suffix un-folds symmetrically: truncate, refold
//     Ctot along path(former parent);
//   - a detach that compacts the index space, and a split, which shifts
//     it, renumber sections, so the child lists and Ctot are rederived in
//     O(n), the order of the tree op itself.
//
// Each op takes the arguments of the rlctree.Tree op of the same name,
// runs that op once and then repairs the derived arrays; an op the tree
// refuses changes nothing. The bit-identity contract carries over
// unchanged: no stored sum ever receives an additive delta. Every
// affected Ctot is recomputed through the same child-descending/own-C-last
// fold as the from-scratch pass, the index-order invariants of rlctree's
// structural ops guarantee the fold order at untouched nodes is
// undisturbed, and S_R/S_L are marked stale so queries re-derive them in
// from-scratch order. After each op the state is bit-identical to New on
// the post-edit tree.

// AttachLeaf appends a new leaf section beneath parent (nil = the input
// node), as rlctree.Tree.AttachLeaf does, and folds it in: O(depth).
func (s *State) AttachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error) {
	if err := s.sync(); err != nil {
		return nil, err
	}
	sec, err := s.tree.AttachLeaf(name, parent, r, l, c)
	if err != nil {
		return nil, err
	}
	s.attached(sec.Index())
	return sec, nil
}

// AttachSubtree moves every section of src into the tree beneath parent,
// as rlctree.Tree.AttachSubtree does, and folds them in:
// O(|subtree| + depth). src is consumed.
func (s *State) AttachSubtree(parent *rlctree.Section, src *rlctree.Tree) ([]*rlctree.Section, error) {
	if err := s.sync(); err != nil {
		return nil, err
	}
	start := s.tree.Len()
	moved, err := s.tree.AttachSubtree(parent, src)
	if err != nil {
		return nil, err
	}
	s.attached(start)
	return moved, nil
}

// attached folds in the sections [start, n) an attach just appended.
// Their children are all inside the range, so their Ctot folds bottom-up
// there; every root of the range hangs from the same attach parent, whose
// path gains their capacitance.
func (s *State) attached(start int) {
	_, _, c, parent := s.tree.Arrays()
	s.size(len(parent))
	s.link(start, parent)
	for w := len(parent) - 1; w >= start; w-- {
		s.fold(int32(w), c)
	}
	s.refoldPath(parent[start])
	s.structural(&s.stats.Attaches)
}

// Detach removes the subtree rooted at sec and returns it as an
// independent tree, as rlctree.Tree.Detach does, and un-folds its
// capacitance. Detaching a contiguous index suffix — the invariable case
// when undoing a recent attach — costs O(|subtree| + depth). Detaching
// the tree's only root would leave the state nothing to analyze, and is
// refused before anything moves.
func (s *State) Detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	if err := s.sync(); err != nil {
		return nil, err
	}
	if sec == nil || sec.Tree() != s.tree {
		return nil, guard.Newf(guard.ErrTopology, "incr", "detach of a section from another tree")
	}
	_, _, _, parent := s.tree.Arrays()
	root, p := sec.Index(), parent[sec.Index()]
	// Section 0 is always a root, so sec is the only one when no other
	// section hangs from the input node.
	if p < 0 && !slices.Contains(parent[1:], -1) {
		return nil, guard.Newf(guard.ErrTopology, "incr",
			"detaching %q, the tree's only root, would empty the tree", sec.Name())
	}
	sub, err := s.tree.Detach(sec)
	if err != nil {
		return nil, err
	}
	if s.tree.Len() == root {
		// The subtree was the index suffix from root. Every other child of
		// p survived, so root, p's largest child, heads p's list.
		if p >= 0 {
			s.childHead[p] = s.childNext[root]
		}
		s.size(root)
		s.refoldPath(p)
	} else {
		s.rederive()
	}
	s.structural(&s.stats.Detaches)
	return sub, nil
}

// SplitSection splits sec into k equal subsections in place, as
// rlctree.Tree.SplitSection does; k = 1 is a no-op, as there. The
// sections after sec shift up by k-1, so the derived arrays are rederived
// in O(n).
func (s *State) SplitSection(sec *rlctree.Section, k int) ([]*rlctree.Section, error) {
	if err := s.sync(); err != nil {
		return nil, err
	}
	subs, err := s.tree.SplitSection(sec, k)
	if err != nil || s.tree.Gen() == s.gen {
		return subs, err
	}
	s.rederive()
	s.structural(&s.stats.Splits)
	return subs, nil
}

// structural finishes a structural op that moved the tree: the state
// takes the new generation and leaves its sums to the next query.
func (s *State) structural(count *uint64) {
	s.gen = s.tree.Gen()
	s.srslValid = false
	*count++
}
