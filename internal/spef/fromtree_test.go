package spef

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eedtree/internal/rlctree"
)

// FromTree exports an RLC tree as a one-net SPEF file, closing the loop
// with Net.Tree in tests: a tree exported and re-imported reproduces the
// same electrical network. The tree's input node becomes the driving pin
// driverPin (*CONN direction O); every leaf becomes a load pin; internal
// nodes are named after their sections. Values are written in the given
// units.
func FromTree(t *rlctree.Tree, netName, driverPin string, units Units) (*File, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("spef: cannot export an empty tree")
	}
	if netName == "" || driverPin == "" {
		return nil, fmt.Errorf("spef: net and driver pin names must be non-empty")
	}
	if units.R == 0 || units.C == 0 || units.L == 0 || units.T == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	net := &Net{Name: netName}
	net.Conns = append(net.Conns, Conn{Type: ConnPin, Pin: driverPin, Dir: DirOutput})
	for _, s := range t.Sections() {
		if s.IsLeaf() {
			net.Conns = append(net.Conns, Conn{Type: ConnPin, Pin: s.Name(), Dir: DirInput})
		}
	}
	totalC := 0.0
	for _, s := range t.Sections() {
		from := driverPin
		if p := s.Parent(); p != nil {
			from = p.Name()
		}
		// A zero-resistance section cannot round-trip through *RES (the
		// importer treats branches as resistive); reject rather than
		// silently merge nodes.
		if s.R() == 0 && s.L() == 0 {
			return nil, fmt.Errorf("spef: section %q is an ideal short; SPEF has no zero-impedance branches", s.Name())
		}
		if s.R() == 0 {
			return nil, fmt.Errorf("spef: section %q has L without R; emit a small series resistance first", s.Name())
		}
		net.Ress = append(net.Ress, Branch{A: from, B: s.Name(), Value: s.R() / units.R})
		if s.L() > 0 {
			net.Inducs = append(net.Inducs, Branch{A: from, B: s.Name(), Value: s.L() / units.L})
		}
		if s.C() > 0 {
			net.Caps = append(net.Caps, Cap{Node: s.Name(), Value: s.C() / units.C})
			totalC += s.C() / units.C
		}
	}
	net.TotalCap = totalC
	f := &File{
		Header: map[string]string{
			"SPEF":   "IEEE 1481-1998",
			"DESIGN": netName,
		},
		Units:   units,
		Nets:    []*Net{net},
		nameMap: map[string]string{},
	}
	return f, nil
}

func TestFromTreeValidation(t *testing.T) {
	tr, _ := rlctree.Line("w", 2, rlctree.SectionValues{R: 10, L: 1e-9, C: 20e-15})
	if _, err := FromTree(nil, "n", "d", DefaultUnits); err == nil {
		t.Fatal("nil tree must fail")
	}
	if _, err := FromTree(rlctree.New(), "n", "d", DefaultUnits); err == nil {
		t.Fatal("empty tree must fail")
	}
	if _, err := FromTree(tr, "", "d", DefaultUnits); err == nil {
		t.Fatal("empty net name must fail")
	}
	if _, err := FromTree(tr, "n", "d", Units{}); err == nil {
		t.Fatal("invalid units must fail")
	}
	// Ideal short sections cannot be expressed.
	short := rlctree.New()
	p := short.MustAddSection("a", nil, 10, 0, 1e-15)
	short.MustAddSection("b", p, 0, 0, 1e-15)
	if _, err := FromTree(short, "n", "d", DefaultUnits); err == nil {
		t.Fatal("ideal short must fail")
	}
	// L without R.
	lonly := rlctree.New()
	lonly.MustAddSection("a", nil, 0, 1e-9, 1e-15)
	if _, err := FromTree(lonly, "n", "d", DefaultUnits); err == nil {
		t.Fatal("L-without-R must fail")
	}
}

// TestFromTreeRoundTrip: export → format → parse → rebuild must reproduce
// the original tree exactly (same sums at every node).
func TestFromTreeRoundTrip(t *testing.T) {
	tr, err := rlctree.BalancedUniform(3, 2, rlctree.SectionValues{R: 25, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromTree(tr, "netx", "drv:Z", DefaultUnits)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(f.Format())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, f.Format())
	}
	rebuilt, err := back.Net("netx").Tree(back.Units)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Len() != tr.Len() {
		t.Fatalf("rebuilt has %d sections, want %d", rebuilt.Len(), tr.Len())
	}
	origSums := tr.ElmoreSums()
	newSums := rebuilt.ElmoreSums()
	for _, s := range tr.Sections() {
		rs := rebuilt.Section(s.Name())
		if rs == nil {
			t.Fatalf("section %s lost", s.Name())
		}
		if a, b := origSums.SR[s.Index()], newSums.SR[rs.Index()]; math.Abs(a-b) > 1e-9*a {
			t.Fatalf("S_R(%s) changed: %g vs %g", s.Name(), a, b)
		}
		if a, b := origSums.SL[s.Index()], newSums.SL[rs.Index()]; math.Abs(a-b) > 1e-9*math.Max(a, 1e-30) {
			t.Fatalf("S_L(%s) changed: %g vs %g", s.Name(), a, b)
		}
	}
}

// Property: random trees with strictly positive R round-trip through SPEF.
func TestFromTreeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := rlctree.New()
		var all []*rlctree.Section
		n := 2 + rng.Intn(15)
		for i := 0; i < n; i++ {
			var parent *rlctree.Section
			if len(all) > 0 && rng.Float64() < 0.8 {
				parent = all[rng.Intn(len(all))]
			}
			s := tr.MustAddSection(
				nodeNameFor(i), parent,
				1+rng.Float64()*50, rng.Float64()*5e-9, 1e-16+rng.Float64()*100e-15)
			all = append(all, s)
		}
		file, err := FromTree(tr, "n", "drv", DefaultUnits)
		if err != nil {
			return false
		}
		back, err := ParseString(file.Format())
		if err != nil {
			return false
		}
		rebuilt, err := back.Net("n").Tree(back.Units)
		if err != nil {
			return false
		}
		return rebuilt.Len() == tr.Len() &&
			math.Abs(rebuilt.TotalCap()-tr.TotalCap()) < 1e-6*tr.TotalCap()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func nodeNameFor(i int) string {
	return "s" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}
