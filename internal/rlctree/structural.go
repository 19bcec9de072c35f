package rlctree

import (
	"fmt"
	"slices"
)

// This file is the in-place structural edit API: attach, detach and split
// primitives that mutate a tree's topology without rebuilding it. An
// incr.State makes each of them itself, with the same arguments, and then
// folds the change into its live summations in O(depth + |subtree|)
// instead of resynchronizing from scratch. This is what makes topology
// optimization — repeater insertion, buffered-tree exploration — an
// incremental-query workload: a candidate topology is a structural edit,
// an O(depth) delay query, and an inverse structural edit, not a tree
// rebuild per candidate.
//
// Every operation preserves the flat-SoA invariants the O(n) sweeps and
// the incremental kernel rely on:
//
//   - ascending section index remains a valid top-down topological order
//     (a parent's index is always smaller than its children's);
//   - surviving sections keep their relative index order, so the
//     bottom-up fold order at every untouched node — children in
//     descending index order, the node's own C last — is unchanged and
//     incrementally maintained sums stay bit-identical to a from-scratch
//     pass over the post-edit tree.
//
// Detach and AttachSubtree move Section structs between trees rather than
// copying them (contrast Clone, which copies): pointers held by callers
// stay valid across the move, with Index/Tree/Parent re-homed.

// AttachLeaf appends a new leaf section beneath parent (nil = the input
// node) — AddSection under its structural-edit name.
func (t *Tree) AttachLeaf(name string, parent *Section, r, l, c float64) (*Section, error) {
	return t.AddSection(name, parent, r, l, c)
}

// AttachSubtree moves every section of src into t beneath parent (nil =
// the input node), preserving src's topology, element values (bit for
// bit) and section names. This is graft semantics in place: the Section
// structs themselves are re-homed — no copies — and src is left empty
// (consumed); any session over src must be discarded. Attaching back a
// tree returned by Detach is the O(|subtree|) undo of that detach.
//
// The moved sections keep their relative order and are appended at the end
// of t's index space, so the topological-order invariant holds. Name
// collisions with t are rejected before any mutation.
func (t *Tree) AttachSubtree(parent *Section, src *Tree) ([]*Section, error) {
	if src == nil || t == nil {
		return nil, fmt.Errorf("rlctree: AttachSubtree requires non-nil trees")
	}
	if src == t {
		return nil, fmt.Errorf("rlctree: cannot attach a tree into itself")
	}
	if src.Len() == 0 {
		return nil, fmt.Errorf("rlctree: AttachSubtree of an empty tree")
	}
	if parent != nil && parent.tree != t {
		return nil, fmt.Errorf("rlctree: AttachSubtree parent belongs to a different tree")
	}
	for _, s := range src.sections {
		if _, dup := t.byName[s.name]; dup {
			return nil, fmt.Errorf("rlctree: AttachSubtree name collision on %q", s.name)
		}
	}

	start := len(t.sections)
	pIdx := int32(-1)
	if parent != nil {
		pIdx = int32(parent.index)
	}
	moved := src.sections
	for i, s := range moved {
		// Parents precede children in src order, so s.parent.index has
		// already been rewritten to its new home when s is visited.
		pi := pIdx
		if s.parent != nil {
			pi = int32(s.parent.index)
		} else {
			s.parent = parent
			if parent != nil {
				parent.children = append(parent.children, s)
			}
		}
		s.tree = t
		s.index = start + i
		t.sections = append(t.sections, s)
		t.byName[s.name] = s
		t.r = append(t.r, src.r[i])
		t.l = append(t.l, src.l[i])
		t.c = append(t.c, src.c[i])
		t.parentIdx = append(t.parentIdx, pi)
	}
	// src is consumed: empty it and bump it, so a stale session over it
	// resynchronizes (and finds nothing to serve).
	src.sections = nil
	src.byName = make(map[string]*Section)
	src.r, src.l, src.c, src.parentIdx = nil, nil, nil, nil
	src.bumpStructural()

	t.bumpStructural()
	return moved, nil
}

// Detach removes the subtree rooted at sec from the tree and returns it as
// an independent tree, sec becoming the new tree's sole root (attached to
// its input node). The Section structs move — names, element values and
// relative order preserved, indices re-homed — so re-attaching the
// returned tree with AttachSubtree is an exact undo. The remaining
// sections of t are compacted preserving their relative order; when the
// subtree occupies a contiguous index suffix (always the case for a chain
// detached below a point, and for undoing the most recent attach) the
// compaction is a truncation.
func (t *Tree) Detach(sec *Section) (*Tree, error) {
	if sec == nil || sec.tree != t {
		return nil, fmt.Errorf("rlctree: Detach of a section from a different tree")
	}
	// Collect the subtree's indices, sorted ascending (a valid top-down
	// order, since every child's index exceeds its parent's).
	removed := make([]int32, 0, 8)
	stack := []*Section{sec}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed = append(removed, int32(s.index))
		stack = append(stack, s.children...)
	}
	slices.Sort(removed)

	// Unlink the root from its parent, preserving sibling order.
	if p := sec.parent; p != nil {
		for i, ch := range p.children {
			if ch == sec {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
		sec.parent = nil
	}

	// Move the subtree into a fresh tree, sized to it, in ascending
	// (topological) index order; a moved section's parent has always moved
	// first, so s.parent.index is already its new home.
	k := len(removed)
	nt := &Tree{
		sections:  make([]*Section, k),
		byName:    make(map[string]*Section, k),
		r:         make([]float64, k),
		l:         make([]float64, k),
		c:         make([]float64, k),
		parentIdx: make([]int32, k),
	}
	for j, old := range removed {
		s := t.sections[old]
		pi := int32(-1)
		if s != sec {
			pi = int32(s.parent.index)
		}
		s.tree = nt
		s.index = j
		nt.sections[j] = s
		nt.byName[s.name] = s
		nt.r[j], nt.l[j], nt.c[j] = t.r[old], t.l[old], t.c[old]
		nt.parentIdx[j] = pi
		delete(t.byName, s.name)
	}

	// Compact the source tree. Suffix fast path: truncate.
	if int(removed[0])+k == len(t.sections) {
		w := int(removed[0])
		t.sections = t.sections[:w]
		t.r, t.l, t.c = t.r[:w], t.l[:w], t.c[:w]
		t.parentIdx = t.parentIdx[:w]
	} else {
		isRemoved := make([]bool, len(t.sections))
		for _, i := range removed {
			isRemoved[i] = true
		}
		w := 0
		for i, s := range t.sections {
			if isRemoved[i] {
				continue
			}
			// s.parent (if any) survives and was compacted earlier in this
			// ascending scan, so its index is already final.
			pi := int32(-1)
			if s.parent != nil {
				pi = int32(s.parent.index)
			}
			s.index = w
			t.sections[w] = s
			t.r[w], t.l[w], t.c[w] = t.r[i], t.l[i], t.c[i]
			t.parentIdx[w] = pi
			w++
		}
		clear(t.sections[w:])
		t.sections = t.sections[:w]
		t.r, t.l, t.c = t.r[:w], t.l[:w], t.c[:w]
		t.parentIdx = t.parentIdx[:w]
	}

	t.bumpStructural()
	return nt, nil
}

// SplitSection splits sec in place into k equal RLC subsections (R/k, L/k,
// C/k each), preserving total element values and the section's place in
// the topology — a structural edit rather than a whole-tree rebuild, the
// same split the test-side Resegment makes of every section at once
// (TestSplitSectionMatchesResegment). The k subsections are returned
// top-down; the last one is sec itself (keeping its name and children, so
// probes addressed by name keep working), the k-1 new upstream
// subsections are named "<name>~<i>". Sections after sec shift up by k-1
// indices; relative order is preserved.
func (t *Tree) SplitSection(sec *Section, k int) ([]*Section, error) {
	if sec == nil || sec.tree != t {
		return nil, fmt.Errorf("rlctree: SplitSection of a section from a different tree")
	}
	if k < 1 {
		return nil, fmt.Errorf("rlctree: SplitSection requires k ≥ 1, got %d", k)
	}
	if k == 1 {
		return []*Section{sec}, nil
	}
	for i := 1; i < k; i++ {
		if _, dup := t.byName[fmt.Sprintf("%s~%d", sec.name, i)]; dup {
			return nil, fmt.Errorf("rlctree: SplitSection name collision on %q~%d", sec.name, i)
		}
	}
	x, m := sec.index, k-1
	kk := float64(k)
	rr, ll, cc := t.r[x]/kk, t.l[x]/kk, t.c[x]/kk

	// Remap parent indices for the shift: children of sec follow it to the
	// last slot; everything after x moves up by m.
	for i, p := range t.parentIdx {
		switch {
		case int(p) == x:
			t.parentIdx[i] = int32(x + m)
		case int(p) > x:
			t.parentIdx[i] = p + int32(m)
		}
	}
	pOld := t.parentIdx[x] // sec's own (unshifted) parent, index < x

	// Grow and shift the flat arrays, then fill the k subsection slots.
	growF := func(a []float64) []float64 {
		a = append(a, make([]float64, m)...)
		copy(a[x+m:], a[x:])
		return a
	}
	t.r, t.l, t.c = growF(t.r), growF(t.l), growF(t.c)
	t.parentIdx = append(t.parentIdx, make([]int32, m)...)
	copy(t.parentIdx[x+m:], t.parentIdx[x:])
	t.sections = append(t.sections, make([]*Section, m)...)
	copy(t.sections[x+m:], t.sections[x:])
	for i := 0; i < k; i++ {
		t.r[x+i], t.l[x+i], t.c[x+i] = rr, ll, cc
		if i == 0 {
			t.parentIdx[x] = pOld
		} else {
			t.parentIdx[x+i] = int32(x + i - 1)
		}
	}
	for _, s := range t.sections[x+k:] {
		s.index += m
	}

	// Create the intermediate Section structs and rewire the chain.
	subs := make([]*Section, k)
	prev := sec.parent
	for i := 1; i < k; i++ {
		mid := &Section{
			name:   fmt.Sprintf("%s~%d", sec.name, i),
			index:  x + i - 1,
			parent: prev,
			tree:   t,
		}
		if prev == nil {
			// sec was attached to the input node; mid takes its place.
		} else if i == 1 {
			for j, ch := range prev.children {
				if ch == sec {
					prev.children[j] = mid
					break
				}
			}
		} else {
			prev.children = append(prev.children, mid)
		}
		t.sections[x+i-1] = mid
		t.byName[mid.name] = mid
		subs[i-1] = mid
		prev = mid
	}
	prev.children = append(prev.children, sec)
	sec.parent = prev
	sec.index = x + m
	t.sections[x+m] = sec
	subs[k-1] = sec

	t.bumpStructural()
	return subs, nil
}
