package rlctree

import (
	"math"
	"math/rand"
	"testing"
)

// checkTreeInvariants verifies the flat-SoA invariants every structural op
// must preserve: section/array lengths agree, Section.Index matches its
// slot, ascending index is a topological order (parent index < child
// index), parentIdx mirrors the Section links, byName is consistent, and
// parent/children links are mutually coherent.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	n := tr.Len()
	if len(tr.r) != n || len(tr.l) != n || len(tr.c) != n || len(tr.parentIdx) != n {
		t.Fatalf("array lengths diverge from section count %d: r=%d l=%d c=%d parent=%d",
			n, len(tr.r), len(tr.l), len(tr.c), len(tr.parentIdx))
	}
	if len(tr.byName) != n {
		t.Fatalf("byName has %d entries for %d sections", len(tr.byName), n)
	}
	for i, s := range tr.sections {
		if s.index != i {
			t.Fatalf("section %q at slot %d has index %d", s.name, i, s.index)
		}
		if s.tree != tr {
			t.Fatalf("section %q does not point back to its tree", s.name)
		}
		if tr.byName[s.name] != s {
			t.Fatalf("byName[%q] does not resolve to the section at slot %d", s.name, i)
		}
		if s.parent == nil {
			if tr.parentIdx[i] != -1 {
				t.Fatalf("root %q has parentIdx %d", s.name, tr.parentIdx[i])
			}
		} else {
			if int(tr.parentIdx[i]) != s.parent.index {
				t.Fatalf("section %q parentIdx %d != parent's index %d",
					s.name, tr.parentIdx[i], s.parent.index)
			}
			if s.parent.index >= i {
				t.Fatalf("topological order violated: %q(%d) has parent %q(%d)",
					s.name, i, s.parent.name, s.parent.index)
			}
			found := false
			for _, ch := range s.parent.children {
				if ch == s {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("section %q missing from its parent's children", s.name)
			}
		}
		for _, ch := range s.children {
			if ch.parent != s {
				t.Fatalf("child %q of %q does not link back", ch.name, s.name)
			}
		}
	}
}

// requireSameSums asserts two trees have bit-identical from-scratch sums
// at every index (they must have equal length).
func requireSameSums(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("tree sizes differ: %d vs %d", got.Len(), want.Len())
	}
	g, w := got.ElmoreSums(), want.ElmoreSums()
	for i := range w.SR {
		if math.Float64bits(g.SR[i]) != math.Float64bits(w.SR[i]) ||
			math.Float64bits(g.SL[i]) != math.Float64bits(w.SL[i]) ||
			math.Float64bits(g.Ctot[i]) != math.Float64bits(w.Ctot[i]) {
			t.Fatalf("node %d: sums %v/%v/%v != %v/%v/%v",
				i, g.SR[i], g.SL[i], g.Ctot[i], w.SR[i], w.SL[i], w.Ctot[i])
		}
	}
}

func TestAttachLeafIsStructuralChange(t *testing.T) {
	tr, a, _, _ := buildEditTree(t)
	g := tr.Gen()
	leaf, err := tr.AttachLeaf("d", a, 5, 1e-9, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	if leaf.Index() != tr.Len()-1 || leaf.Parent() != a {
		t.Fatalf("leaf %q@%d not appended beneath %q", leaf.Name(), leaf.Index(), a.Name())
	}
	if leaf.R() != 5 || leaf.L() != 1e-9 || leaf.C() != 10e-15 {
		t.Fatalf("leaf values wrong: %v", leaf)
	}
	if tr.Gen() != g+1 {
		t.Fatalf("attach moved generation %d → %d, want one step", g, tr.Gen())
	}
	if !tr.StructuralSince(g) {
		t.Fatal("attach must register as a structural change")
	}
}

func TestDetachThenAttachSubtreeIsExactUndo(t *testing.T) {
	// A branchy tree: detach an interior subtree and re-attach it; the
	// fingerprint — topology, names and element bits — must round-trip.
	tr := New()
	a := tr.MustAddSection("a", nil, 10, 1e-9, 100e-15)
	b := tr.MustAddSection("b", a, 20, 2e-9, 200e-15)
	tr.MustAddSection("c", a, 30, 3e-9, 300e-15)
	d := tr.MustAddSection("d", b, 40, 4e-9, 400e-15)
	tr.MustAddSection("e", d, 50, 5e-9, 500e-15)
	tr.MustAddSection("f", b, 60, 6e-9, 600e-15)

	before := tr.Fingerprint()
	sub, err := tr.Detach(d)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	checkTreeInvariants(t, sub)
	if sub.Len() != 2 || tr.Len() != 4 {
		t.Fatalf("detach split sizes: sub=%d tr=%d", sub.Len(), tr.Len())
	}
	if sub.Section("d") != d || d.Tree() != sub || d.Parent() != nil {
		t.Fatal("detached root must be re-homed as the new tree's root")
	}
	if tr.Section("d") != nil || tr.Section("e") != nil {
		t.Fatal("detached names must leave the source tree")
	}

	moved, err := tr.AttachSubtree(b, sub)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	if len(moved) != 2 || moved[0] != d {
		t.Fatalf("AttachSubtree must return the re-homed sections, got %v", moved)
	}
	if sub.Len() != 0 {
		t.Fatal("AttachSubtree must consume the source tree")
	}
	if d.Tree() != tr || d.Parent() != b {
		t.Fatal("re-attached root must live under the attach parent")
	}
	// Same content: the detach+attach round trip moved d,e to the end of
	// the index space, so the fingerprint (which hashes topology by index)
	// matches a tree built in that order.
	want := New()
	wa := want.MustAddSection("a", nil, 10, 1e-9, 100e-15)
	wb := want.MustAddSection("b", wa, 20, 2e-9, 200e-15)
	want.MustAddSection("c", wa, 30, 3e-9, 300e-15)
	want.MustAddSection("f", wb, 60, 6e-9, 600e-15)
	wd := want.MustAddSection("d", wb, 40, 4e-9, 400e-15)
	want.MustAddSection("e", wd, 50, 5e-9, 500e-15)
	if tr.Fingerprint() != want.Fingerprint() {
		t.Fatal("detach+reattach must reproduce the equivalent rebuilt tree exactly")
	}
	requireSameSums(t, tr, want)
	_ = before
}

func TestDetachSuffixIsTruncation(t *testing.T) {
	// Detaching the tail of a chain removes a contiguous suffix: the
	// surviving prefix must be untouched (same Section pointers, indices,
	// values).
	tr, err := ParseString(chainSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	prefix := append([]*Section(nil), tr.Sections()[:5]...)
	sub, err := tr.Detach(tr.Section("s5"))
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	checkTreeInvariants(t, sub)
	if tr.Len() != 5 || sub.Len() != 3 {
		t.Fatalf("split sizes: tr=%d sub=%d", tr.Len(), sub.Len())
	}
	for i, s := range tr.Sections() {
		if s != prefix[i] || s.Index() != i {
			t.Fatalf("suffix detach disturbed surviving section %d", i)
		}
	}
	if len(tr.Section("s4").Children()) != 0 {
		t.Fatal("detach point must lose its child link")
	}
}

func TestDetachMidArrayCompacts(t *testing.T) {
	// Detach a subtree from the middle of the index space: survivors keep
	// relative order, and sums match a from-scratch build of the survivors
	// in that compacted order.
	tr := New()
	a := tr.MustAddSection("a", nil, 1, 1e-9, 10e-15)
	b := tr.MustAddSection("b", a, 2, 2e-9, 20e-15)
	tr.MustAddSection("c", b, 3, 3e-9, 30e-15)
	d := tr.MustAddSection("d", a, 4, 4e-9, 40e-15)
	tr.MustAddSection("e", d, 5, 5e-9, 50e-15)

	sub, err := tr.Detach(b)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	checkTreeInvariants(t, sub)
	want := New()
	wa := want.MustAddSection("a", nil, 1, 1e-9, 10e-15)
	wd := want.MustAddSection("d", wa, 4, 4e-9, 40e-15)
	want.MustAddSection("e", wd, 5, 5e-9, 50e-15)
	if tr.Fingerprint() != want.Fingerprint() {
		t.Fatal("mid-array detach must leave the compacted survivors")
	}
	wantSub := New()
	wb := wantSub.MustAddSection("b", nil, 2, 2e-9, 20e-15)
	wantSub.MustAddSection("c", wb, 3, 3e-9, 30e-15)
	if sub.Fingerprint() != wantSub.Fingerprint() {
		t.Fatal("detached subtree must carry its content")
	}
}

func TestAttachSubtreeAtInput(t *testing.T) {
	// A nil parent hangs the subtree off the input node: its root becomes
	// one more root of the tree, and the moved sections come back in
	// source index order.
	tr, _, _, _ := buildEditTree(t)
	src, err := Line("w", 3, SectionValues{R: 1, L: 0, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]*Section(nil), src.Sections()...)
	moved, err := tr.AttachSubtree(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	if len(tr.Roots()) != 2 || tr.Section("w1").Parent() != nil {
		t.Fatal("attach at the input must add a root")
	}
	for i, s := range moved {
		if s != want[i] {
			t.Fatalf("moved[%d] = %q, want source section %q", i, s.Name(), want[i].Name())
		}
	}
}

func TestAttachSubtreeValidation(t *testing.T) {
	tr, a, _, _ := buildEditTree(t)
	var nilTree *Tree
	if _, err := nilTree.AttachSubtree(nil, New()); err == nil {
		t.Fatal("nil destination must be rejected")
	}
	if _, err := tr.AttachSubtree(a, nil); err == nil {
		t.Fatal("nil src must be rejected")
	}
	if _, err := tr.AttachSubtree(a, tr); err == nil {
		t.Fatal("self-attach must be rejected")
	}
	if _, err := tr.AttachSubtree(a, New()); err == nil {
		t.Fatal("empty src must be rejected")
	}
	// Name collision: rejected before any mutation.
	src := New()
	src.MustAddSection("x", nil, 1, 0, 1e-15)
	src.MustAddSection("b", src.Section("x"), 1, 0, 1e-15) // collides with tr's "b"
	g, sg := tr.Gen(), src.Gen()
	if _, err := tr.AttachSubtree(a, src); err == nil {
		t.Fatal("name collision must be rejected")
	}
	if tr.Gen() != g || src.Gen() != sg || src.Len() != 2 {
		t.Fatal("rejected attach must leave both trees untouched")
	}
	// Parent from another tree.
	other, oa, _, _ := buildEditTree(t)
	_ = other
	ok := New()
	ok.MustAddSection("z", nil, 1, 0, 1e-15)
	if _, err := tr.AttachSubtree(oa, ok); err == nil {
		t.Fatal("foreign parent must be rejected")
	}
}

func TestSplitSectionMatchesResegment(t *testing.T) {
	// Splitting every section of a chain, in index order, reproduces the
	// Resegment-built tree exactly: same names, same topology order, same
	// element bits — the in-place form of the same transformation.
	for _, k := range []int{2, 3, 5} {
		tr, err := ParseString(chainSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Resegment(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"s0", "s1", "s2", "s3"} {
			subs, err := tr.SplitSection(tr.Section(name), k)
			if err != nil {
				t.Fatal(err)
			}
			if len(subs) != k || subs[k-1].Name() != name {
				t.Fatalf("k=%d: split of %q returned %d subs, last %q", k, name, len(subs), subs[len(subs)-1].Name())
			}
			checkTreeInvariants(t, tr)
		}
		if tr.Fingerprint() != want.Fingerprint() {
			t.Fatalf("k=%d: in-place splits diverge from Resegment", k)
		}
		requireSameSums(t, tr, want)
	}
}

func TestSplitSectionEdgeCases(t *testing.T) {
	tr, a, b, _ := buildEditTree(t)
	if _, err := tr.SplitSection(b, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	g := tr.Gen()
	subs, err := tr.SplitSection(b, 1)
	if err != nil || len(subs) != 1 || subs[0] != b || tr.Gen() != g {
		t.Fatalf("k=1 must be a no-op: %v %v", subs, err)
	}
	// Split an interior section with children: children follow the section.
	subs, err = tr.SplitSection(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, tr)
	if subs[2] != a || a.Parent() == nil || a.Parent().Name() != "a~2" {
		t.Fatal("original section must keep its name and move below the intermediates")
	}
	if got := a.R() * 3; math.Abs(got-10) > 1e-12 {
		t.Fatalf("split did not divide R: %g", a.R())
	}
	// Collision with the reserved "~" names.
	tr2 := New()
	tr2.MustAddSection("w", nil, 1, 0, 1e-15)
	tr2.MustAddSection("w~1", nil, 1, 0, 1e-15)
	if _, err := tr2.SplitSection(tr2.Section("w"), 2); err == nil {
		t.Fatal("subsection name collision must be rejected")
	}
}

func TestRandomStructuralOpsKeepInvariants(t *testing.T) {
	// A randomized soak over the four structural ops plus value edits:
	// after every op the tree invariants hold and from-scratch sums at a
	// random node equal the brute-force path evaluation.
	rng := rand.New(rand.NewSource(41))
	tr := Random(rng, RandomSpec{Sections: 24, MaxR: 50, MaxL: 5e-9, MaxC: 200e-15, ChainP: 0.5})
	var detached []*Tree
	for op := 0; op < 400; op++ {
		secs := tr.Sections()
		switch rng.Intn(5) {
		case 0:
			name := "x" + itoa(op)
			parent := secs[rng.Intn(len(secs))]
			if _, err := tr.AttachLeaf(name, parent, rng.Float64()*10, 0, rng.Float64()*1e-15); err != nil {
				t.Fatal(err)
			}
		case 1:
			if tr.Len() < 4 {
				continue
			}
			sec := secs[1+rng.Intn(len(secs)-1)]
			sub, err := tr.Detach(sec)
			if err != nil {
				t.Fatal(err)
			}
			checkTreeInvariants(t, sub)
			detached = append(detached, sub)
		case 2:
			if len(detached) == 0 {
				continue
			}
			sub := detached[len(detached)-1]
			detached = detached[:len(detached)-1]
			parent := secs[rng.Intn(len(secs))]
			if _, err := tr.AttachSubtree(parent, sub); err != nil {
				// Name collision with a later attach is possible; drop it.
				continue
			}
		case 3:
			sec := secs[rng.Intn(len(secs))]
			if _, err := tr.SplitSection(sec, 2+rng.Intn(3)); err != nil {
				continue
			}
		default:
			sec := secs[rng.Intn(len(secs))]
			if err := sec.SetC(rng.Float64() * 1e-13); err != nil {
				t.Fatal(err)
			}
		}
		checkTreeInvariants(t, tr)
	}
	// Cross-check the O(n) sums against the brute-force definition on the
	// final topology.
	sums := tr.ElmoreSums()
	brute := tr.elmoreSumsBrute()
	for i := range sums.SR {
		if math.Abs(sums.SR[i]-brute.SR[i]) > 1e-18+1e-12*math.Abs(brute.SR[i]) {
			t.Fatalf("node %d: SR %g != brute %g", i, sums.SR[i], brute.SR[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
