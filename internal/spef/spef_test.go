package spef

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
)

const sample = `// extracted by testgen
*SPEF "IEEE 1481-1998"
*DESIGN "repro"
*DATE "2026-07-05"
*VENDOR "eedtree"
*PROGRAM "testgen"
*VERSION "1.0"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 OHM
*L_UNIT 1 NH

*NAME_MAP
*1 net_a
*2 drv:Z
*3 load1:A
*4 load2:A

*D_NET *1 0.25
*CONN
*I *2 O
*I *3 I
*I *4 I
*CAP
1 *1:1 0.05
2 *3 0.1
3 *4 0.1
*RES
1 *2 *1:1 10
2 *1:1 *3 25
3 *1:1 *4 25
*INDUC
1 *2 *1:1 0.5
2 *1:1 *3 1.25
3 *1:1 *4 1.25
*END
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header["DESIGN"] != "repro" {
		t.Fatalf("DESIGN = %q", f.Header["DESIGN"])
	}
	if f.Units.T != 1e-9 || f.Units.C != 1e-12 || f.Units.R != 1 || f.Units.L != 1e-9 {
		t.Fatalf("units = %+v", f.Units)
	}
	if len(f.Nets) != 1 {
		t.Fatalf("nets = %d", len(f.Nets))
	}
	net := f.Net("net_a")
	if net == nil {
		t.Fatal("net name map not applied")
	}
	if f.Net("nope") != nil {
		t.Fatal("unknown net must be nil")
	}
	if net.TotalCap != 0.25 {
		t.Fatalf("total cap = %g", net.TotalCap)
	}
	if len(net.Conns) != 3 || net.Conns[0].Pin != "drv:Z" || net.Conns[0].Dir != DirOutput {
		t.Fatalf("conns = %+v", net.Conns)
	}
	if len(net.Caps) != 3 || net.Caps[0].Node != "net_a:1" {
		t.Fatalf("caps = %+v", net.Caps)
	}
	if len(net.Ress) != 3 || len(net.Inducs) != 3 {
		t.Fatalf("branches = %d res, %d induc", len(net.Ress), len(net.Inducs))
	}
}

func TestTreeFromNet(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.Net("net_a").Tree(f.Units)
	if err != nil {
		t.Fatal(err)
	}
	// Driver drv:Z roots the tree; three sections (one per RES branch).
	if tree.Len() != 3 {
		t.Fatalf("sections = %d, want 3", tree.Len())
	}
	mid := tree.Section("net_a:1")
	if mid == nil || mid.Parent() != nil {
		t.Fatal("first section must hang off the input")
	}
	if mid.R() != 10 || math.Abs(mid.L()-0.5e-9) > 1e-21 || math.Abs(mid.C()-0.05e-12) > 1e-21 {
		t.Fatalf("mid section values (%g, %g, %g)", mid.R(), mid.L(), mid.C())
	}
	l1 := tree.Section("load1:A")
	if l1 == nil || l1.Parent() != mid {
		t.Fatal("load1 must hang off net_a:1")
	}
	if math.Abs(l1.C()-0.1e-12) > 1e-21 {
		t.Fatalf("load cap = %g", l1.C())
	}
	// Total capacitance in SI matches the declared total.
	if math.Abs(tree.TotalCap()-0.25e-12) > 1e-20 {
		t.Fatalf("total C = %g", tree.TotalCap())
	}
	// The tree is immediately analyzable.
	analyses, err := core.AnalyzeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyses {
		if !a.Model.Stable() || a.Delay50 <= 0 {
			t.Fatalf("node %s not analyzable: %+v", a.Section.Name(), a)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Format()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if back.Units != f.Units {
		t.Fatalf("units changed: %+v vs %+v", back.Units, f.Units)
	}
	bn, fn := back.Net("net_a"), f.Net("net_a")
	if bn == nil {
		t.Fatal("net lost in round trip")
	}
	if len(bn.Ress) != len(fn.Ress) || len(bn.Caps) != len(fn.Caps) || len(bn.Inducs) != len(fn.Inducs) {
		t.Fatal("branch counts changed")
	}
	// Trees built from both must agree exactly.
	t1, err := fn.Tree(f.Units)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := bn.Tree(back.Units)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Format() != t2.Format() {
		t.Fatalf("trees differ:\n%s\nvs\n%s", t1.Format(), t2.Format())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"dnet-short", "*D_NET x\n*END\n"},
		{"dnet-badcap", "*D_NET x abc\n*END\n"},
		{"cap-outside", "*CAP\n"},
		{"unterminated", "*D_NET x 1\n*CAP\n1 a 0.5\n"},
		{"badunit", "*T_UNIT 1 FURLONG\n"},
		{"badunit-short", "*T_UNIT 1\n"},
		{"badunit-scale", "*R_UNIT x OHM\n"},
		{"conn-short", "*D_NET x 1\n*CONN\n*I a\n*END\n"},
		{"conn-type", "*D_NET x 1\n*CONN\n*Q a I\n*END\n"},
		{"conn-dir", "*D_NET x 1\n*CONN\n*I a X\n*END\n"},
		{"cap-coupling", "*D_NET x 1\n*CAP\n1 a b 0.5\n*END\n"},
		{"cap-short", "*D_NET x 1\n*CAP\n1\n*END\n"},
		{"res-short", "*D_NET x 1\n*RES\n1 a b\n*END\n"},
		{"res-badval", "*D_NET x 1\n*RES\n1 a b xy\n*END\n"},
		{"cap-badval", "*D_NET x 1\n*CAP\n1 a xy\n*END\n"},
		{"namemap-short", "*NAME_MAP\n*1\n"},
		{"stray", "*D_NET x 1\nfoo bar\n*END\n"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.text); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestTreeErrors(t *testing.T) {
	units := DefaultUnits
	mk := func(body string) *Net {
		f, err := ParseString("*D_NET n 1\n" + body + "*END\n")
		if err != nil {
			t.Fatalf("setup parse: %v", err)
		}
		return f.Nets[0]
	}
	// No driver.
	if _, err := mk("*CONN\n*I a I\n*RES\n1 a b 1\n").Tree(units); err == nil {
		t.Error("no driver must fail")
	}
	// Two drivers.
	if _, err := mk("*CONN\n*I a O\n*I b O\n*RES\n1 a b 1\n").Tree(units); err == nil {
		t.Error("two drivers must fail")
	}
	// Bidirectional pins are an acceptable driver fallback, but a net with
	// no parasitics must still fail.
	if _, err := mk("*CONN\n*I a B\n").Tree(units); err == nil {
		t.Error("empty parasitics must fail")
	}
	// Loop.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n2 b c 1\n3 c a 1\n").Tree(units); err == nil {
		t.Error("resistive loop must fail")
	}
	// Parallel resistors.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n2 a b 2\n").Tree(units); err == nil {
		t.Error("parallel resistors must fail")
	}
	// Disconnected resistive island.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n2 c d 1\n").Tree(units); err == nil {
		t.Error("disconnected island must fail")
	}
	// Floating capacitance.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n*CAP\n1 z 0.5\n").Tree(units); err == nil {
		t.Error("floating cap must fail")
	}
	// Self-loop resistor.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a a 1\n").Tree(units); err == nil {
		t.Error("self-loop must fail")
	}
	// INDUC without matching RES.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n*INDUC\n1 a c 1\n").Tree(units); err == nil {
		t.Error("unmatched INDUC must fail")
	}
	// Invalid units.
	if _, err := mk("*CONN\n*I a O\n*RES\n1 a b 1\n").Tree(Units{}); err == nil {
		t.Error("invalid units must fail")
	}
	// Driver-node capacitance is preserved through an ideal junction.
	net := mk("*CONN\n*I a O\n*RES\n1 a b 1\n*CAP\n1 a 0.5\n2 b 0.5\n")
	tree, err := net.Tree(units)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.TotalCap()-1e-12) > 1e-24 {
		t.Fatalf("driver cap lost: total C = %g", tree.TotalCap())
	}
	if tree.Section("a(drv)") == nil {
		t.Fatal("driver-cap junction missing")
	}
}

// TestTreeInducCheckLinear: matching *INDUC pairs to *RES branches must
// not scan every resistor per inductor, which at this size is ~25×
// slower than the build itself. An 8000-section net with an inductor on
// every branch builds within 4× the same net without them.
func TestTreeInducCheckLinear(t *testing.T) {
	src := rlctree.Random(rand.New(rand.NewSource(5)), rlctree.RandomSpec{Sections: 8000})
	f, err := FromTree(src, "big", "drv", DefaultUnits)
	if err != nil {
		t.Fatal(err)
	}
	withL := f.Nets[0]
	if len(withL.Inducs) < 7000 {
		t.Fatalf("net carries %d inductors, want nearly one per branch", len(withL.Inducs))
	}
	noL := *withL
	noL.Inducs = nil
	build := func(n *Net) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := n.Tree(DefaultUnits); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	plain, induc := build(&noL), build(withL)
	if induc > 4*plain {
		t.Errorf("Tree with *INDUC took %v, more than 4× the %v without it", induc, plain)
	}
}

func TestHeaderPassThrough(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Format()
	for _, want := range []string{`*DESIGN "repro"`, "*T_UNIT 1 NS", "*D_NET net_a"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}
