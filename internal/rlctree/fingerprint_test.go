package rlctree

import (
	"math/rand"
	"testing"
)

func TestFingerprintCloneStable(t *testing.T) {
	tr := Random(rand.New(rand.NewSource(1)), RandomSpec{Sections: 40})
	fp := tr.Fingerprint()
	if fp != tr.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	if got := tr.Clone().Fingerprint(); got != fp {
		t.Fatal("clone must preserve the fingerprint")
	}
}

func TestFingerprintEmptyVsNonEmpty(t *testing.T) {
	if New().Fingerprint() == mustLine(t, 1).Fingerprint() {
		t.Fatal("empty and one-section trees collide")
	}
}

func mustLine(t *testing.T, n int) *Tree {
	t.Helper()
	tr, err := Line("w", n, SectionValues{R: 10, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFingerprintSensitivity: every kind of content change — value edits,
// renames, reparenting, growth — must change the hash.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Tree {
		tr := New()
		a := tr.MustAddSection("a", nil, 10, 1e-9, 50e-15)
		b := tr.MustAddSection("b", a, 20, 2e-9, 60e-15)
		tr.MustAddSection("c", b, 30, 3e-9, 70e-15)
		return tr
	}
	fp := base().Fingerprint()
	for name, build := range map[string]func() *Tree{
		"value change": func() *Tree {
			tr := New()
			a := tr.MustAddSection("a", nil, 10, 1e-9, 50e-15)
			b := tr.MustAddSection("b", a, 20, 2e-9, 60e-15)
			tr.MustAddSection("c", b, 30, 3e-9, 70.000001e-15)
			return tr
		},
		"rename": func() *Tree {
			tr := New()
			a := tr.MustAddSection("a", nil, 10, 1e-9, 50e-15)
			b := tr.MustAddSection("b", a, 20, 2e-9, 60e-15)
			tr.MustAddSection("c2", b, 30, 3e-9, 70e-15)
			return tr
		},
		"reparent": func() *Tree {
			tr := New()
			a := tr.MustAddSection("a", nil, 10, 1e-9, 50e-15)
			tr.MustAddSection("b", a, 20, 2e-9, 60e-15)
			tr.MustAddSection("c", a, 30, 3e-9, 70e-15)
			return tr
		},
		"extra section": func() *Tree {
			tr := base()
			tr.MustAddSection("d", tr.Section("c"), 5, 0, 10e-15)
			return tr
		},
	} {
		if build().Fingerprint() == fp {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}
	// Adjacent-name boundary: "ab"+"c" vs "a"+"bc" with identical values.
	t1 := New()
	t1.MustAddSection("ab", nil, 1, 0, 1e-15)
	t1.MustAddSection("c", t1.Section("ab"), 1, 0, 1e-15)
	t2 := New()
	t2.MustAddSection("a", nil, 1, 0, 1e-15)
	t2.MustAddSection("bc", t2.Section("a"), 1, 0, 1e-15)
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Error("length-prefixing failed: shifted names collide")
	}
}

// TestFingerprintGraftResegment: the mutation helpers used to assemble
// composite networks — resegmenting, and grafting a subtree on with
// AttachSubtree — must produce new fingerprints, the property the
// registry relies on to re-key an edited net.
func TestFingerprintGraftResegment(t *testing.T) {
	tr := mustLine(t, 8)
	fp := tr.Fingerprint()

	re, err := Resegment(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() == fp {
		t.Fatal("resegmented tree kept the fingerprint")
	}

	host := tr.Clone()
	stub, err := Line("g", 2, SectionValues{R: 10, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.AttachSubtree(host.Leaves()[0], stub); err != nil {
		t.Fatal(err)
	}
	if host.Fingerprint() == fp {
		t.Fatal("grafted tree kept the fingerprint")
	}
}

// TestFingerprintAfterStructuralEdits: the generation alone retires a
// cached fingerprint, so after each structural edit of a tree whose
// fingerprint was just cached, the fingerprint must equal that of a fresh
// FromParents build of the same content.
func TestFingerprintAfterStructuralEdits(t *testing.T) {
	tr := randomTree(rand.New(rand.NewSource(11)), 30)
	check := func(op string, tr *Tree) {
		t.Helper()
		if tr.Fingerprint() != rebuild(t, tr).Fingerprint() {
			t.Fatalf("after %s the fingerprint differs from a fresh build's", op)
		}
	}
	check("construction", tr)
	if _, err := tr.AttachLeaf("leaf", tr.Sections()[5], 1, 1e-9, 1e-15); err != nil {
		t.Fatal(err)
	}
	check("AttachLeaf", tr)
	sub, err := tr.Detach(tr.Sections()[3])
	if err != nil {
		t.Fatal(err)
	}
	check("Detach", tr)
	check("Detach (the subtree)", sub)
	if _, err := tr.AttachSubtree(tr.Sections()[0], sub); err != nil {
		t.Fatal(err)
	}
	check("AttachSubtree", tr)
	if _, err := tr.SplitSection(tr.Sections()[2], 3); err != nil {
		t.Fatal(err)
	}
	check("SplitSection", tr)
}
