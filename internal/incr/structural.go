package incr

import (
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// This file extends the kernel across structural edits. The observation is
// the same one that makes element edits cheap: the summations are path
// accumulations over Ctot, and a structural change — attach a subtree,
// detach one, split a section in place — perturbs Ctot on exactly one
// input→node path. So:
//
//   - attach folds the new subtree's Ctot bottom-up within the appended
//     index range (O(|subtree|)) and refolds Ctot along path(parent)
//     (O(depth)); the new nodes' S_R/S_L seed from the parent's path sums
//     through the ordinary lazy query path;
//   - detach un-folds symmetrically: drop the removed range, refold Ctot
//     along path(former parent);
//   - split recomputes the k subsection Ctots from the preserved child
//     fold and refolds the path above.
//
// Each op here is the twin of the rlctree.Tree op of the same name and
// takes that op's arguments; it must run right after the tree op, on a
// state that matched the tree before it (engine.Session pairs them).
//
// The bit-identity contract carries over unchanged: no stored sum ever
// receives an additive delta. Every affected Ctot is recomputed through
// the same child-descending/own-C-last fold as the from-scratch pass, the
// index-order invariants of rlctree's structural ops guarantee the fold
// order at untouched nodes is undisturbed, and S_R/S_L are marked stale so
// queries re-derive them in from-scratch order. After each op the state
// is bit-identical to New on the post-edit tree. An error means the op
// does not match the state, which may then be part-updated: rebuild it
// with New.

// Attach folds in the sections an attach just appended to the tree —
// AttachLeaf's new section or the sections AttachSubtree moved in, in
// index order — reading each one's parent and element values from the
// tree. It computes their Ctot bottom-up in from-scratch order and refolds
// Ctot along the attach parent's path.
func (s *State) Attach(secs []*rlctree.Section) error {
	start, n := len(s.r), len(secs)
	if n == 0 {
		return guard.Newf(guard.ErrTopology, "incr", "attach of no sections")
	}
	attachParent := int32(-1)
	for i, sec := range secs {
		idx := int32(start + i)
		if sec.Index() != int(idx) {
			return guard.Newf(guard.ErrTopology, "incr",
				"attached section %q at index %d does not extend state of %d sections", sec.Name(), sec.Index(), idx)
		}
		p := int32(-1)
		if sp := sec.Parent(); sp != nil {
			p = int32(sp.Index())
		}
		if p >= idx {
			return guard.Newf(guard.ErrTopology, "incr", "attached section %q has parent %d out of order", sec.Name(), p)
		}
		if p < int32(start) {
			// A root of the attached subtree: all roots share the attach
			// parent (-1 = the input node).
			attachParent = p
		}
		s.parent = append(s.parent, p)
		s.r = append(s.r, sec.R())
		s.l = append(s.l, sec.L())
		s.c = append(s.c, sec.C())
		s.ctot = append(s.ctot, 0)
		s.sr = append(s.sr, 0)
		s.sl = append(s.sl, 0)
		s.childHead = append(s.childHead, -1)
		s.childNext = append(s.childNext, -1)
		if p >= 0 {
			// Ascending push-to-head keeps every child list in descending
			// index order, new children ahead of older smaller-index ones —
			// exactly the list New would build for the post-attach tree.
			s.childNext[idx] = s.childHead[p]
			s.childHead[p] = idx
		}
	}
	// Ctot of the new range, in the exact from-scratch bottom-up order:
	// children (all inside the range) fold in descending index order, the
	// node's own C last.
	for j := start + n - 1; j >= start; j-- {
		s.ctot[j] += s.c[j]
		if p := s.parent[j]; p >= int32(start) {
			s.ctot[p] += s.ctot[j]
		}
	}
	// The attach parent's path gains the subtree's capacitance.
	s.refoldPath(attachParent)
	s.srslValid = false
	s.stats.Attaches++
	return nil
}

// Detach removes the subtree rooted at section index root, as
// rlctree.Tree.Detach(root's section) just did: root and every section
// below it, found from the state's own parent array. The survivors are
// compacted in relative order and Ctot is refolded along the former
// parent's path. A detach of a contiguous index suffix (the common case
// for optimizer undo) is a pure truncation. A detach that would empty the
// state is refused.
func (s *State) Detach(root int) error {
	n := len(s.r)
	if root < 0 || root >= n {
		return guard.Newf(guard.ErrTopology, "incr", "detach root %d out of range [0, %d)", root, n)
	}
	// A parent precedes its children, so by induction on index the
	// subtree is the whole suffix from root exactly when every later
	// section hangs at or below root.
	suffix := true
	for i := root + 1; i < n; i++ {
		if int(s.parent[i]) < root {
			suffix = false
			break
		}
	}
	if suffix && root == 0 {
		return guard.Newf(guard.ErrTopology, "incr", "detach of section %d would empty the state", root)
	}
	p := s.parent[root]

	if suffix {
		// Suffix fast path: unlink the subtree root from its parent's child
		// list, then truncate every array. O(|subtree| + fanout).
		if r := int32(root); p >= 0 {
			if s.childHead[p] == r {
				s.childHead[p] = s.childNext[r]
			} else {
				for ch := s.childHead[p]; ch >= 0; ch = s.childNext[ch] {
					if s.childNext[ch] == r {
						s.childNext[ch] = s.childNext[r]
						break
					}
				}
			}
		}
		w := root
		s.parent = s.parent[:w]
		s.childHead = s.childHead[:w]
		s.childNext = s.childNext[:w]
		s.r, s.l, s.c = s.r[:w], s.l[:w], s.c[:w]
		s.ctot = s.ctot[:w]
		s.sr, s.sl = s.sr[:w], s.sl[:w]
	} else {
		// General case: compact in relative order. oldToNew doubles as the
		// removed marker (-1): a section is removed when it is root or its
		// parent was removed.
		oldToNew := make([]int32, n)
		w := int32(0)
		for i := 0; i < n; i++ {
			if op := s.parent[i]; i == root || (i > root && int(op) >= root && oldToNew[op] < 0) {
				oldToNew[i] = -1
				continue
			}
			oldToNew[i] = w
			w++
		}
		out := int32(0)
		var newP int32
		for i := 0; i < n; i++ {
			if oldToNew[i] < 0 {
				continue
			}
			if op := s.parent[i]; op >= 0 {
				// A survivor's parent survives (removal is subtree-closed).
				newP = oldToNew[op]
			} else {
				newP = -1
			}
			s.parent[out] = newP
			s.r[out], s.l[out], s.c[out] = s.r[i], s.l[i], s.c[i]
			s.ctot[out] = s.ctot[i]
			out++
		}
		s.parent = s.parent[:out]
		s.r, s.l, s.c = s.r[:out], s.l[:out], s.c[:out]
		s.ctot = s.ctot[:out]
		s.sr, s.sl = s.sr[:out], s.sl[:out]
		// Rebuild the adjacency lists for the compacted index space.
		s.childHead = s.childHead[:out]
		s.childNext = s.childNext[:out]
		for i := range s.childHead {
			s.childHead[i] = -1
			s.childNext[i] = -1
		}
		for i := int32(0); i < out; i++ {
			if pp := s.parent[i]; pp >= 0 {
				s.childNext[i] = s.childHead[pp]
				s.childHead[pp] = i
			}
		}
		if p >= 0 {
			p = oldToNew[p]
		}
	}
	// The former parent's path loses the subtree's capacitance.
	s.refoldPath(p)
	s.srslValid = false
	s.stats.Detaches++
	return nil
}

// Split replaces the section at index x with k equal subsections in
// place, the original keeping the last slot (and its children), later
// sections shifting up — mirroring rlctree.Tree.SplitSection index for
// index; k = 1 is a no-op, as there. The divided element values are
// recomputed here from the state's own arrays with the same division, so
// their bits match the tree's.
func (s *State) Split(x, k int) error {
	if x < 0 || x >= len(s.r) || k < 1 {
		return guard.Newf(guard.ErrTopology, "incr",
			"split of section %d into %d out of range for %d sections", x, k, len(s.r))
	}
	if k == 1 {
		return nil
	}
	m := int32(k - 1)
	kk := float64(k)
	rr, ll, cc := s.r[x]/kk, s.l[x]/kk, s.c[x]/kk

	// Remap parents across the shift: children of x follow it to the last
	// slot, everything above x moves up by m. x's own parent is < x and
	// unaffected.
	for i, p := range s.parent {
		switch {
		case int(p) == x:
			s.parent[i] = int32(x) + m
		case int(p) > x:
			s.parent[i] = p + m
		}
	}
	pOld := s.parent[x]

	growF := func(a []float64) []float64 {
		a = append(a, make([]float64, m)...)
		copy(a[x+int(m):], a[x:])
		return a
	}
	s.r, s.l, s.c = growF(s.r), growF(s.l), growF(s.c)
	s.ctot, s.sr, s.sl = growF(s.ctot), growF(s.sr), growF(s.sl)
	s.parent = append(s.parent, make([]int32, m)...)
	copy(s.parent[x+int(m):], s.parent[x:])
	for i := 0; i < k; i++ {
		s.r[x+i], s.l[x+i], s.c[x+i] = rr, ll, cc
		if i == 0 {
			s.parent[x] = pOld
		} else {
			s.parent[x+i] = int32(x + i - 1)
		}
	}

	// Rebuild adjacency for the shifted index space.
	n := len(s.r)
	s.childHead = s.childHead[:0]
	s.childNext = s.childNext[:0]
	for i := 0; i < n; i++ {
		s.childHead = append(s.childHead, -1)
		s.childNext = append(s.childNext, -1)
	}
	for i := 0; i < n; i++ {
		if p := s.parent[i]; p >= 0 {
			s.childNext[i] = s.childHead[p]
			s.childHead[p] = int32(i)
		}
	}

	// Ctot of the k subsections, bottom-up in from-scratch fold order: the
	// last slot folds the original section's (shifted, unchanged) children,
	// each upstream subsection folds its single child; own C last.
	last := x + int(m)
	acc := 0.0
	for ch := s.childHead[last]; ch >= 0; ch = s.childNext[ch] {
		acc += s.ctot[ch]
	}
	s.ctot[last] = acc + cc
	for j := last - 1; j >= x; j-- {
		s.ctot[j] = s.ctot[j+1] + cc
	}
	s.refoldPath(pOld)
	s.srslValid = false
	s.stats.Splits++
	return nil
}
