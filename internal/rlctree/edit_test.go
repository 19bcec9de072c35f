package rlctree

import (
	"math"
	"testing"
)

func buildEditTree(t *testing.T) (*Tree, *Section, *Section, *Section) {
	t.Helper()
	tr := New()
	a := tr.MustAddSection("a", nil, 10, 1e-9, 100e-15)
	b := tr.MustAddSection("b", a, 20, 2e-9, 200e-15)
	c := tr.MustAddSection("c", a, 30, 3e-9, 300e-15)
	return tr, a, b, c
}

func TestSetElemUpdatesValuesAndAccessors(t *testing.T) {
	tr, a, b, _ := buildEditTree(t)
	if err := a.SetR(55); err != nil {
		t.Fatal(err)
	}
	if err := b.SetL(7e-9); err != nil {
		t.Fatal(err)
	}
	if err := b.SetC(9e-15); err != nil {
		t.Fatal(err)
	}
	if a.R() != 55 || b.L() != 7e-9 || b.C() != 9e-15 {
		t.Fatalf("accessors did not reflect edits: R=%g L=%g C=%g", a.R(), b.L(), b.C())
	}
	// The flat arrays are the source of truth: Arrays must agree.
	r, l, c, parent := tr.Arrays()
	if r[0] != 55 || l[1] != 7e-9 || c[1] != 9e-15 {
		t.Fatalf("arrays did not reflect edits: %v %v %v", r, l, c)
	}
	if parent[0] != -1 || parent[1] != 0 || parent[2] != 0 {
		t.Fatalf("parent indices wrong: %v", parent)
	}
}

func TestSetElemValidation(t *testing.T) {
	_, a, _, _ := buildEditTree(t)
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.SetR(v); err == nil {
			t.Fatalf("SetR(%g) must fail", v)
		}
		if err := a.SetL(v); err == nil {
			t.Fatalf("SetL(%g) must fail", v)
		}
		if err := a.SetC(v); err == nil {
			t.Fatalf("SetC(%g) must fail", v)
		}
	}
	if a.R() != 10 || a.L() != 1e-9 || a.C() != 100e-15 {
		t.Fatal("failed edits must not change values")
	}
}

func TestGenBumpsOnMutationOnly(t *testing.T) {
	tr, a, _, _ := buildEditTree(t)
	g := tr.Gen()
	if g == 0 {
		t.Fatal("construction must bump gen")
	}
	if err := a.SetR(a.R()); err != nil {
		t.Fatal(err)
	}
	if tr.Gen() != g {
		t.Fatal("no-op edit must not bump gen")
	}
	if err := a.SetR(-1); err == nil || tr.Gen() != g {
		t.Fatal("failed edit must not bump gen")
	}
	if err := a.SetR(11); err != nil {
		t.Fatal(err)
	}
	if tr.Gen() != g+1 {
		t.Fatalf("edit must bump gen by 1: %d -> %d", g, tr.Gen())
	}
	tr.MustAddSection("d", a, 1, 0, 1e-15)
	if tr.Gen() != g+2 {
		t.Fatal("AddSection must bump gen")
	}
}

// TestStructuralSinceSeparatesEditKinds: StructuralSince — the cause a
// session reports when it rebuilds its state — fires for a topology change
// after the given generation and not for element edits alone.
func TestStructuralSinceSeparatesEditKinds(t *testing.T) {
	tr, a, _, _ := buildEditTree(t)
	g := tr.Gen()
	if err := a.SetR(99); err != nil {
		t.Fatal(err)
	}
	if tr.StructuralSince(g) {
		t.Fatal("StructuralSince must not fire for pure element edits")
	}
	tr.MustAddSection("d", a, 1, 0, 1e-15)
	if !tr.StructuralSince(g) {
		t.Fatal("StructuralSince must report the topology change")
	}
	g2 := tr.Gen()
	if err := a.SetR(98); err != nil {
		t.Fatal(err)
	}
	if tr.StructuralSince(g2) {
		t.Fatal("StructuralSince must not fire for element edits after the change")
	}
}

func TestFingerprintInvalidationOnEdit(t *testing.T) {
	tr, a, _, _ := buildEditTree(t)
	fp1 := tr.Fingerprint()
	if fp2 := tr.Fingerprint(); fp2 != fp1 {
		t.Fatal("fingerprint of an unchanged tree must be stable")
	}
	if err := a.SetC(1e-15); err != nil {
		t.Fatal(err)
	}
	fp3 := tr.Fingerprint()
	if fp3 == fp1 {
		t.Fatal("element edit must change the fingerprint")
	}
	// Editing back restores the original content hash.
	if err := a.SetC(100e-15); err != nil {
		t.Fatal(err)
	}
	if tr.Fingerprint() != fp1 {
		t.Fatal("restoring the value must restore the fingerprint")
	}
}

func TestEditedTreeSumsMatchRebuiltTree(t *testing.T) {
	tr, a, b, c := buildEditTree(t)
	if err := a.SetR(42); err != nil {
		t.Fatal(err)
	}
	if err := b.SetL(9e-9); err != nil {
		t.Fatal(err)
	}
	if err := c.SetC(7e-15); err != nil {
		t.Fatal(err)
	}
	// A tree built from scratch with the post-edit values.
	want := New()
	wa := want.MustAddSection("a", nil, 42, 1e-9, 100e-15)
	want.MustAddSection("b", wa, 20, 9e-9, 200e-15)
	want.MustAddSection("c", wa, 30, 3e-9, 7e-15)
	got, exp := tr.ElmoreSums(), want.ElmoreSums()
	for i := range exp.SR {
		if got.SR[i] != exp.SR[i] || got.SL[i] != exp.SL[i] || got.Ctot[i] != exp.Ctot[i] {
			t.Fatalf("node %d: edited tree sums %v/%v/%v != rebuilt %v/%v/%v",
				i, got.SR[i], got.SL[i], got.Ctot[i], exp.SR[i], exp.SL[i], exp.Ctot[i])
		}
	}
}
