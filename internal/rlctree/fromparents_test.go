package rlctree

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rebuild returns tr rebuilt in one FromParents call from copies of its
// arrays: FromParents takes ownership of what it is handed, and Arrays
// returns the tree's own.
func rebuild(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	names := make([]string, tr.Len())
	for i, s := range tr.Sections() {
		names[i] = s.Name()
	}
	r, l, c, parent := tr.Arrays()
	out, err := FromParents(names, slices.Clone(parent), slices.Clone(r), slices.Clone(l), slices.Clone(c))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTopology asserts two trees have the same sections, in the same
// order, with the same parents and children lists, by name.
func sameTopology(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprints differ:\n%s\nvs\n%s", got.Format(), want.Format())
	}
	names := func(ss []*Section) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = s.Name()
		}
		return out
	}
	for i, w := range want.Sections() {
		g := got.Sections()[i]
		if !slices.Equal(names(g.Children()), names(w.Children())) {
			t.Fatalf("section %q: children %v, want %v", w.Name(), names(g.Children()), names(w.Children()))
		}
	}
}

func TestFromParentsMatchesAddSection(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := randomTree(rng, 1+rng.Intn(60))
		got := rebuild(t, want)
		checkTreeInvariants(t, got)
		sameTopology(t, got, want)
		requireSameSums(t, got, want)
		if got.Gen() != 1 || !got.StructuralSince(0) {
			t.Fatalf("FromParents bumped the generation to %d, want one structural bump", got.Gen())
		}
	}
	empty, err := FromParents(nil, nil, nil, nil, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty arrays: %v, %d sections", err, empty.Len())
	}
}

// TestFromParentsRejects: every section AddSection rejects is rejected
// with AddSection's error, and so are malformed arrays.
func TestFromParentsRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		// The second section; the first is a valid root "a".
		sec     string
		parent  int32
		r, l, c float64
	}{
		{"empty name", "", 0, 1, 1, 1},
		{"duplicate name", "a", 0, 1, 1, 1},
		{"negative R", "b", 0, -1, 0, 0},
		{"NaN R", "b", 0, nan, 0, 0},
		{"infinite L", "b", 0, 0, inf, 0},
		{"negative L", "b", 0, 0, -1e-9, 0},
		{"NaN C", "b", 0, 0, 0, nan},
		{"infinite C", "b", -1, 1, 1, -inf},
	}
	for _, c := range cases {
		ref := New()
		a := ref.MustAddSection("a", nil, 1, 1e-9, 1e-15)
		var p *Section
		if c.parent == 0 {
			p = a
		}
		_, want := ref.AddSection(c.sec, p, c.r, c.l, c.c)
		if want == nil {
			t.Fatalf("%s: AddSection accepted the section", c.name)
		}
		_, got := FromParents([]string{"a", c.sec}, []int32{-1, c.parent},
			[]float64{1, c.r}, []float64{1e-9, c.l}, []float64{1e-15, c.c})
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: FromParents err = %v, want %v", c.name, got, want)
		}
	}
	for _, parent := range [][]int32{{-1, 1}, {-1, 2}, {-1, -2}, {0, -1}} {
		_, err := FromParents([]string{"a", "b"}, parent, []float64{1, 1}, []float64{0, 0}, []float64{0, 0})
		if err == nil || !strings.Contains(err.Error(), "parent index") {
			t.Errorf("parents %v: err = %v, want a parent-index error", parent, err)
		}
	}
	names, parent, two, one := []string{"a", "b"}, []int32{-1, 0}, []float64{1, 1}, []float64{1}
	for _, c := range []struct {
		parent  []int32
		r, l, c []float64
	}{
		{parent[:1], two, two, two},
		{parent, one, two, two},
		{parent, two, one, two},
		{parent, two, two, []float64{1, 1, 1}},
	} {
		if _, err := FromParents(names, c.parent, c.r, c.l, c.c); err == nil || !strings.Contains(err.Error(), "lengths differ") {
			t.Errorf("lengths %d/%d/%d/%d/%d: err = %v, want a length error",
				len(names), len(c.parent), len(c.r), len(c.l), len(c.c), err)
		}
	}
}

// TestFromParentsAttachLeafKeepsSiblings: children slices share one array
// in FromParents trees, so growing one section's list must not write into
// the next section's. Then a random run of structural edits on a
// FromParents tree and on its AddSection twin keeps the two equal.
func TestFromParentsAttachLeafKeepsSiblings(t *testing.T) {
	// a ─┬─ b ─┬─ d      the shared children array reads
	//    │     └─ e      [b c | d e | f]
	//    └─ c ─── f
	tr, err := FromParents(
		[]string{"a", "b", "c", "d", "e", "f"},
		[]int32{-1, 0, 0, 1, 1, 2},
		[]float64{1, 1, 1, 1, 1, 1}, make([]float64, 6), []float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	requireAttachKeepsSiblings(t, tr)

	rng := rand.New(rand.NewSource(7))
	ref := randomTree(rng, 40)
	editInStep(t, ref, rebuild(t, ref), rng)
}

// requireAttachKeepsSiblings attaches leaves under b, a and d of the
// six-section tree a(b(d, e), c(f)) and checks every children list.
func requireAttachKeepsSiblings(t *testing.T, tr *Tree) {
	t.Helper()
	for _, under := range []string{"b", "a", "d"} {
		if _, err := tr.AttachLeaf("x"+under, tr.Section(under), 1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"a": "b c xa", "b": "d e xb", "c": "f", "d": "xd", "e": "", "f": ""}
	for name, kids := range want {
		var got []string
		for _, ch := range tr.Section(name).Children() {
			got = append(got, ch.Name())
		}
		if strings.Join(got, " ") != kids {
			t.Errorf("children of %s = %v, want [%s]", name, got, kids)
		}
	}
	checkTreeInvariants(t, tr)
}

// editInStep runs 200 random structural edits, drawn from rng, on ref
// and on fast, an equal tree built another way, and requires the two to
// stay equal.
func editInStep(t *testing.T, ref, fast *Tree, rng *rand.Rand) {
	t.Helper()
	for op := 0; op < 200; op++ {
		secs := ref.Sections()
		at := secs[rng.Intn(len(secs))].Name()
		switch rng.Intn(3) {
		case 0:
			name := "x" + itoa(op)
			for _, tr := range []*Tree{ref, fast} {
				if _, err := tr.AttachLeaf(name, tr.Section(at), 1, 0, 1e-15); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if ref.Len() < 8 || ref.Section(at).Parent() == nil {
				continue
			}
			// Index 0 is a root, so it stays behind to take the subtree.
			root := ref.Sections()[0].Name()
			for _, tr := range []*Tree{ref, fast} {
				sub, err := tr.Detach(tr.Section(at))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.AttachSubtree(tr.Section(root), sub); err != nil {
					t.Fatal(err)
				}
			}
		default:
			_, errRef := ref.SplitSection(ref.Section(at), 2)
			_, errFast := fast.SplitSection(fast.Section(at), 2)
			if (errRef == nil) != (errFast == nil) {
				t.Fatalf("SplitSection(%s): reference tree err = %v, other tree err = %v", at, errRef, errFast)
			}
		}
		checkTreeInvariants(t, fast)
		sameTopology(t, fast, ref)
	}
}
