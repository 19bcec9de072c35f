package rlctree

import (
	"fmt"
	"math"
)

// This file is the mutation API of a tree: in-place element edits with
// generation counting. The paper's whole point is that the summations S_R
// and S_L are recursively maintainable, so a synthesis loop that perturbs
// a few element values should not rebuild the tree (or re-run the full
// two-pass sums) per candidate. The tree itself keeps no history: a
// consumer that maintains derived state across edits — an incr.State,
// which reads the tree through Arrays — makes each edit itself, running
// the op here once and then repairing what it derives. The generation
// counter is how such a consumer notices an edit made around it (the
// counter moved without it), and StructuralSince says whether that edit
// changed the topology.

// Elem names one element value of a section: R, L or C.
type Elem uint8

const (
	// ElemR is the series resistance of a section.
	ElemR Elem = iota
	// ElemL is the series inductance of a section.
	ElemL
	// ElemC is the node-to-ground capacitance of a section.
	ElemC
)

// String returns "R", "L" or "C".
func (e Elem) String() string {
	switch e {
	case ElemR:
		return "R"
	case ElemL:
		return "L"
	case ElemC:
		return "C"
	}
	return fmt.Sprintf("Elem(%d)", uint8(e))
}

// Gen returns the tree's generation: a counter bumped by every mutation,
// structural (AddSection, AttachSubtree, Detach, SplitSection) or element
// edit (SetR/SetL/SetC). Two calls returning the same value bracket an
// unchanged tree, which is also the condition under which the cached
// Fingerprint is reused.
func (t *Tree) Gen() uint64 { return t.gen }

// StructuralSince reports whether any structural mutation happened after
// generation gen: the resync-cause signal for a consumer that finds the
// tree edited around it.
func (t *Tree) StructuralSince(gen uint64) bool { return t.lastStructGen > gen }

// bump records one mutation. Moving the generation is all it takes to
// drop the cached fingerprint, which is kept for one generation only.
func (t *Tree) bump() { t.gen++ }

// bumpStructural records a topology change: a bump that StructuralSince
// reports.
func (t *Tree) bumpStructural() {
	t.bump()
	t.lastStructGen = t.gen
}

// setElem validates and applies one element edit. A write of the value
// already stored (== comparison, so writing -0 over +0 is a no-op and the
// stored bits never change silently) does not bump the generation.
func (s *Section) setElem(elem Elem, arr []float64, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("rlctree: section %q: invalid %s = %g", s.name, elem, v)
	}
	if v == arr[s.index] {
		return nil
	}
	arr[s.index] = v
	s.tree.bump()
	return nil
}

// SetR changes the section's series resistance in place. The value must be
// non-negative and finite. The edit bumps the tree's generation and
// invalidates the cached fingerprint.
func (s *Section) SetR(v float64) error { return s.setElem(ElemR, s.tree.r, v) }

// SetL changes the section's series inductance in place; same contract as
// SetR.
func (s *Section) SetL(v float64) error { return s.setElem(ElemL, s.tree.l, v) }

// SetC changes the section's node capacitance in place; same contract as
// SetR.
func (s *Section) SetC(v float64) error { return s.setElem(ElemC, s.tree.c, v) }

// Arrays returns the tree's own flat structure-of-arrays layout: element
// values r, l, c and parent indices (-1 for sections attached to the
// input node), all indexed by section index. Ascending index order is a
// valid top-down topological order. The slices are read-only, and valid
// until the next structural edit; element edits write through them. The
// incremental sums kernel (internal/incr) reads the tree through them.
func (t *Tree) Arrays() (r, l, c []float64, parent []int32) {
	return t.r, t.l, t.c, t.parentIdx
}
