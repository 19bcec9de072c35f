package rlctree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig5Tree builds the 7-section balanced binary tree of paper Fig. 5:
// trunk section 1, sections 2–3 at level 2, sections 4–7 at level 3.
func fig5Tree(t *testing.T) (*Tree, []*Section) {
	t.Helper()
	tr := New()
	v := SectionValues{R: 25, L: 5e-9, C: 50e-15}
	s1 := tr.MustAddSection("s1", nil, v.R, v.L, v.C)
	s2 := tr.MustAddSection("s2", s1, v.R, v.L, v.C)
	s3 := tr.MustAddSection("s3", s1, v.R, v.L, v.C)
	s4 := tr.MustAddSection("s4", s2, v.R, v.L, v.C)
	s5 := tr.MustAddSection("s5", s2, v.R, v.L, v.C)
	s6 := tr.MustAddSection("s6", s3, v.R, v.L, v.C)
	s7 := tr.MustAddSection("s7", s3, v.R, v.L, v.C)
	return tr, []*Section{s1, s2, s3, s4, s5, s6, s7}
}

func TestAddSectionValidation(t *testing.T) {
	tr := New()
	if _, err := tr.AddSection("", nil, 1, 1, 1); err == nil {
		t.Fatal("expected error for empty name")
	}
	s, err := tr.AddSection("a", nil, 1, 2e-9, 3e-15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddSection("a", nil, 1, 1, 1); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if _, err := tr.AddSection("b", nil, -1, 0, 0); err == nil {
		t.Fatal("expected negative-R error")
	}
	if _, err := tr.AddSection("b", nil, 0, math.NaN(), 0); err == nil {
		t.Fatal("expected NaN-L error")
	}
	if _, err := tr.AddSection("b", nil, 0, 0, math.Inf(1)); err == nil {
		t.Fatal("expected Inf-C error")
	}
	other := New()
	if _, err := other.AddSection("x", s, 1, 1, 1); err == nil {
		t.Fatal("expected cross-tree parent error")
	}
	if s.R() != 1 || s.L() != 2e-9 || s.C() != 3e-15 {
		t.Fatal("accessors wrong")
	}
}

func TestMustAddSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().MustAddSection("", nil, 1, 1, 1)
}

func TestTreeNavigation(t *testing.T) {
	tr, s := fig5Tree(t)
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth())
	}
	if got := tr.Section("s5"); got != s[4] {
		t.Fatal("Section lookup wrong")
	}
	if tr.Section("nope") != nil {
		t.Fatal("missing section must be nil")
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0] != s[0] {
		t.Fatal("Roots wrong")
	}
	leaves := tr.Leaves()
	if len(leaves) != 4 || leaves[0] != s[3] || leaves[3] != s[6] {
		t.Fatalf("Leaves wrong: %v", leaves)
	}
	if !s[6].IsLeaf() || s[1].IsLeaf() {
		t.Fatal("IsLeaf wrong")
	}
	if s[6].Level() != 3 || s[0].Level() != 1 {
		t.Fatal("Level wrong")
	}
	path := s[6].Path() // s7: s1 → s3 → s7
	if len(path) != 3 || path[0] != s[0] || path[1] != s[2] || path[2] != s[6] {
		t.Fatalf("Path wrong: %v", path)
	}
	if s[0].Parent() != nil || s[6].Parent() != s[2] {
		t.Fatal("Parent wrong")
	}
	if kids := s[1].Children(); len(kids) != 2 || kids[0] != s[3] {
		t.Fatal("Children wrong")
	}
	if s[3].Tree() != tr {
		t.Fatal("Tree backref wrong")
	}
	if got, want := tr.TotalCap(), 7*50e-15; math.Abs(got-want) > 1e-25 {
		t.Fatalf("TotalCap = %g, want %g", got, want)
	}
	if !strings.Contains(s[6].String(), "parent=s3") {
		t.Fatalf("String: %q", s[6].String())
	}
}

func TestDownstreamCaps(t *testing.T) {
	tr, s := fig5Tree(t)
	ctot := tr.DownstreamCaps()
	c := 50e-15
	want := []float64{7 * c, 3 * c, 3 * c, c, c, c, c}
	for i := range want {
		if math.Abs(ctot[s[i].Index()]-want[i]) > 1e-25 {
			t.Fatalf("Ctot[%s] = %g, want %g", s[i].Name(), ctot[s[i].Index()], want[i])
		}
	}
}

func TestElmoreSumsFig5ByHand(t *testing.T) {
	tr, s := fig5Tree(t)
	sums := tr.ElmoreSums()
	r, l, c := 25.0, 5e-9, 50e-15
	// Hand expansion: S_R(s7) = R1·7C + R3·3C + R7·C = R·C·(7+3+1)
	wantSR7 := r * c * 11
	wantSL7 := l * c * 11
	i7 := s[6].Index()
	if math.Abs(sums.SR[i7]-wantSR7) > 1e-12*wantSR7 {
		t.Fatalf("SR(s7) = %g, want %g", sums.SR[i7], wantSR7)
	}
	if math.Abs(sums.SL[i7]-wantSL7) > 1e-12*wantSL7 {
		t.Fatalf("SL(s7) = %g, want %g", sums.SL[i7], wantSL7)
	}
	// Trunk: S_R(s1) = R1·7C.
	if want := r * c * 7; math.Abs(sums.SR[s[0].Index()]-want) > 1e-12*want {
		t.Fatalf("SR(s1) = %g, want %g", sums.SR[s[0].Index()], want)
	}
}

func TestCommonPath(t *testing.T) {
	_, s := fig5Tree(t)
	// s4 and s7 share only the trunk.
	r, l := commonPath(s[3], s[6])
	if r != 25 || l != 5e-9 {
		t.Fatalf("commonPath(s4,s7) = %g,%g want trunk only", r, l)
	}
	// s4 and s5 share trunk + s2.
	r, _ = commonPath(s[3], s[4])
	if r != 50 {
		t.Fatalf("commonPath(s4,s5) R = %g, want 50", r)
	}
	// A node with itself: its whole path.
	r, _ = commonPath(s[6], s[6])
	if r != 75 {
		t.Fatalf("commonPath(s7,s7) R = %g, want 75", r)
	}
}

// randomTree builds a random tree with n sections and random parentage.
func randomTree(rng *rand.Rand, n int) *Tree {
	tr := New()
	var all []*Section
	for i := 0; i < n; i++ {
		var parent *Section
		if len(all) > 0 && rng.Float64() < 0.85 {
			parent = all[rng.Intn(len(all))]
		}
		s := tr.MustAddSection(
			sectionName(i), parent,
			rng.Float64()*100,
			rng.Float64()*10e-9,
			rng.Float64()*200e-15,
		)
		all = append(all, s)
	}
	return tr
}

func sectionName(i int) string {
	return "s" + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// Property (paper Appendix): the O(n) recursive summation algorithm equals
// the O(n²) direct-definition computation on random trees.
func TestElmoreSumsMatchesBruteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 2+rng.Intn(40))
		fast := tr.ElmoreSums()
		brute := tr.elmoreSumsBrute()
		for i := range fast.SR {
			if !close(fast.SR[i], brute.SR[i], 1e-10) || !close(fast.SL[i], brute.SL[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func close(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= rel*scale
}

func TestBuildersShapes(t *testing.T) {
	line, err := Line("w", 10, SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if line.Len() != 10 || line.Depth() != 10 || len(line.Leaves()) != 1 {
		t.Fatal("Line shape wrong")
	}

	// Paper Fig. 13(a): 5-level binary balanced tree drives 16 sinks.
	bin, err := BalancedUniform(5, 2, SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bin.Leaves()); got != 16 {
		t.Fatalf("binary 5-level tree drives %d sinks, want 16", got)
	}
	if bin.Len() != 1+2+4+8+16 {
		t.Fatalf("binary tree has %d sections, want 31", bin.Len())
	}

	// Paper Fig. 13(b): 2-level tree with branching factor 16 drives the
	// same 16 sinks.
	flat, err := BalancedUniform(2, 16, SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(flat.Leaves()); got != 16 {
		t.Fatalf("16-ary 2-level tree drives %d sinks, want 16", got)
	}
	if flat.Len() != 17 {
		t.Fatalf("16-ary tree has %d sections, want 17", flat.Len())
	}
}

func TestBuilderErrors(t *testing.T) {
	v := SectionValues{R: 1, L: 1, C: 1}
	if _, err := Line("w", 0, v); err == nil {
		t.Fatal("Line(0) should fail")
	}
	if _, err := Line("w", 1, SectionValues{R: -1}); err == nil {
		t.Fatal("negative R should fail")
	}
	if _, err := Balanced(0, 2, nil); err == nil {
		t.Fatal("Balanced(0) should fail")
	}
	if _, err := Balanced(2, 0, make([]SectionValues, 2)); err == nil {
		t.Fatal("branching 0 should fail")
	}
	if _, err := Balanced(2, 2, make([]SectionValues, 1)); err == nil {
		t.Fatal("perLevel length mismatch should fail")
	}
	if _, err := Asymmetric(2, 0, v); err == nil {
		t.Fatal("asym 0 should fail")
	}
	if _, err := Asymmetric(0, 2, v); err == nil {
		t.Fatal("levels 0 should fail")
	}
	if _, err := HTree(3, v, 0); err == nil {
		t.Fatal("lengthRatio 0 should fail")
	}
	if _, err := Ladder(1, 2, make([]SectionValues, 2)); err == nil {
		t.Fatal("Ladder length mismatch should fail")
	}
}

func TestAsymmetricCompounding(t *testing.T) {
	tr, err := Asymmetric(3, 2, SectionValues{R: 10, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	// Level-2 left child has 2× trunk impedance, right child 1×.
	l2 := tr.Section("n2_0")
	r2 := tr.Section("n2_1")
	if l2.R() != 20 || r2.R() != 10 {
		t.Fatalf("level-2 R = %g,%g want 20,10", l2.R(), r2.R())
	}
	// Leftmost level-3 section compounds: 2×2×10 = 40.
	if got := tr.Section("n3_0").R(); got != 40 {
		t.Fatalf("leftmost level-3 R = %g, want 40", got)
	}
	// Rightmost path stays at base impedance.
	if got := tr.Section("n3_3").R(); got != 10 {
		t.Fatalf("rightmost level-3 R = %g, want 10", got)
	}
	// asym = 1 must reproduce the balanced tree values.
	bal, err := Asymmetric(3, 1, SectionValues{R: 10, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bal.Sections() {
		if s.R() != 10 {
			t.Fatalf("asym=1 section %s has R=%g, want 10", s.Name(), s.R())
		}
	}
}

func TestLadderCollapsesBalanced(t *testing.T) {
	per := []SectionValues{
		{R: 40, L: 8e-9, C: 100e-15},
		{R: 20, L: 4e-9, C: 50e-15},
		{R: 10, L: 2e-9, C: 25e-15},
	}
	lad, err := Ladder(3, 2, per)
	if err != nil {
		t.Fatal(err)
	}
	// Level ℓ has m = 2^(ℓ-1) parallel sections → R/m, L/m, C·m.
	wants := []SectionValues{
		{R: 40, L: 8e-9, C: 100e-15},
		{R: 10, L: 2e-9, C: 100e-15},
		{R: 2.5, L: 0.5e-9, C: 100e-15},
	}
	for i, s := range lad.Sections() {
		w := wants[i]
		if !close(s.R(), w.R, 1e-12) || !close(s.L(), w.L, 1e-12) || !close(s.C(), w.C, 1e-12) {
			t.Fatalf("ladder section %d = (%g,%g,%g), want (%g,%g,%g)",
				i, s.R(), s.L(), s.C(), w.R, w.L, w.C)
		}
	}
	// The ladder must preserve the total capacitance of the tree and the
	// Elmore sums at each level's nodes.
	tree, err := Balanced(3, 2, per)
	if err != nil {
		t.Fatal(err)
	}
	if !close(lad.TotalCap(), tree.TotalCap(), 1e-12) {
		t.Fatalf("ladder total C %g != tree total C %g", lad.TotalCap(), tree.TotalCap())
	}
	treeSums := tree.ElmoreSums()
	ladSums := lad.ElmoreSums()
	// Compare at a level-3 sink of the tree vs ladder node 3.
	sink := tree.Section("n3_0")
	if !close(treeSums.SR[sink.Index()], ladSums.SR[2], 1e-12) {
		t.Fatalf("SR mismatch: tree %g vs ladder %g", treeSums.SR[sink.Index()], ladSums.SR[2])
	}
	if !close(treeSums.SL[sink.Index()], ladSums.SL[2], 1e-12) {
		t.Fatalf("SL mismatch: tree %g vs ladder %g", treeSums.SL[sink.Index()], ladSums.SL[2])
	}
}

func TestHTreeScaling(t *testing.T) {
	tr, err := HTree(3, SectionValues{R: 100, L: 10e-9, C: 200e-15}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 3 || len(tr.Leaves()) != 4 {
		t.Fatal("HTree shape wrong")
	}
	l3 := tr.Leaves()[0]
	if !close(l3.R(), 25, 1e-12) || !close(l3.L(), 2.5e-9, 1e-12) || !close(l3.C(), 50e-15, 1e-12) {
		t.Fatalf("HTree level-3 values (%g,%g,%g)", l3.R(), l3.L(), l3.C())
	}
}

func TestFormatRoundTrip(t *testing.T) {
	tr, _ := fig5Tree(t)
	text := tr.Format()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", text, err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost sections: %d vs %d", back.Len(), tr.Len())
	}
	for _, s := range tr.Sections() {
		b := back.Section(s.Name())
		if b == nil {
			t.Fatalf("section %s lost", s.Name())
		}
		if !close(b.R(), s.R(), 1e-9) || !close(b.L(), s.L(), 1e-9) || !close(b.C(), s.C(), 1e-9) {
			t.Fatalf("section %s values changed: (%g,%g,%g) vs (%g,%g,%g)",
				s.Name(), b.R(), b.L(), b.C(), s.R(), s.L(), s.C())
		}
		pb, ps := b.Parent(), s.Parent()
		if (pb == nil) != (ps == nil) || (pb != nil && pb.Name() != ps.Name()) {
			t.Fatalf("section %s parent changed", s.Name())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                           // no sections
		"a - 1 1",                    // wrong field count
		"a b 1 1 1",                  // unknown parent
		"a - 1 1 bogus",              // bad value
		"a - 1 1 1\na - 1 1 1",       // duplicate
		"a - -5 1 1",                 // negative element
		"# only a comment\n\n   \n ", // effectively empty
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestParseSkipsCommentsAndUnits(t *testing.T) {
	tr, err := ParseString("# tree\ns1 - 25 5n 50f\ns2 s1 25 5n 50f\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	s2 := tr.Section("s2")
	if s2.Parent().Name() != "s1" || s2.L() != 5e-9 || s2.C() != 50e-15 {
		t.Fatal("parsed values wrong")
	}
}

func TestClone(t *testing.T) {
	src, _ := BalancedUniform(3, 2, SectionValues{R: 5, L: 2e-9, C: 30e-15})
	c := src.Clone()
	if c.Format() != src.Format() {
		t.Fatal("clone differs from source")
	}
	if math.Abs(c.TotalCap()-src.TotalCap()) > 1e-25 {
		t.Fatal("clone capacitance differs")
	}
	// Mutating the clone must not affect the source.
	c.MustAddSection("extra", c.Section("n3_0"), 1, 0, 1e-15)
	if src.Section("extra") != nil || src.Len() == c.Len() {
		t.Fatal("clone aliases the source")
	}
}
