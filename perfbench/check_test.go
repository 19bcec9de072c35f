package main

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/eedsrv"
	"eedtree/internal/opt"
	"eedtree/internal/rlctree"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
	"eedtree/perfbench/ref"
)

// Every workload's output check must accept the program's answer and
// reject a wrong one. The wrong answers are the mistakes a faster but
// broken program could make: the RC Elmore delay in place of the
// equivalent Elmore delay, a dropped term, or a skipped improvement.

func wantCheckFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check accepted a wrong answer", what)
	}
}

// rlcOf builds the program's tree for a reference tree.
func rlcOf(t *testing.T, rt *ref.Tree) *rlctree.Tree {
	t.Helper()
	tree, err := rlctree.ParseString(string(treeText(rt, "s")))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestChipStreamCheck(t *testing.T) {
	var c chipStream
	var buf bytes.Buffer
	if err := writeDesign(&buf, rand.New(rand.NewSource(5)), 20, &c); err != nil {
		t.Fatal(err)
	}
	s := spef.NewStream(&buf)
	for i := 0; i < 20; i++ {
		n, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		tree, err := n.Tree(s.Units())
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := core.AnalyzeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := timing.SummarizeNet(n.Name, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(i, ns); err != nil {
			t.Fatalf("net %d: the program's answer failed: %v", i, err)
		}
		if i > 0 {
			continue
		}
		rc := ns
		rc.MaxDelay, rc.AvgDelay = 0, 0
		for _, na := range nodes {
			if na.Section.IsLeaf() {
				rc.MaxDelay = max(rc.MaxDelay, na.ElmoreDelay50)
				rc.AvgDelay += na.ElmoreDelay50 / float64(ns.Sinks)
			}
		}
		wantCheckFail(t, "chip_stream RC Elmore delays", c.check(i, rc))
		short := ns
		short.Sinks--
		wantCheckFail(t, "chip_stream sink count", c.check(i, short))
	}
}

func TestServeMixedCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rt := randomValues(rng, randomParents(rng, 40), nil)
	n := &serveNet{tree: rt, dirty: true}
	for i := range rt.Parent {
		n.names = append(n.names, "s"+strconv.Itoa(i))
	}
	nodes, err := core.AnalyzeTree(rlcOf(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	s := &serveMixed{}
	for i, na := range nodes {
		if err := s.checkNode(n, int32(i), eedsrv.NodeResultOf(na), true); err != nil {
			t.Fatalf("the program's answer failed: %v", err)
		}
	}
	wrong := eedsrv.NodeResultOf(nodes[7])
	wrong.Delay50 = wrong.Elmore50
	wantCheckFail(t, "serve_mixed RC Elmore delay", s.checkNode(n, 7, wrong, false))
	wrong = eedsrv.NodeResultOf(nodes[7])
	z := *wrong.Zeta * 1.01
	wrong.Zeta = &z
	wantCheckFail(t, "serve_mixed ζ off by 1%", s.checkNode(n, 7, wrong, true))
	// An edit the replica took but the server did not: the check sees
	// the stale answer.
	before := eedsrv.NodeResultOf(nodes[len(nodes)-1])
	rt.R[0] *= 2
	n.dirty = true
	wantCheckFail(t, "serve_mixed lost edit", s.checkNode(n, int32(len(nodes)-1), before, false))
}

func TestOptimizeChecks(t *testing.T) {
	var o optimize
	if err := o.setup(7, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w, err := opt.OptimizeWidths(o.widths[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWidths(o.widths[0], w); err != nil {
		t.Fatalf("the program's sizing failed: %v", err)
	}
	bad := w
	bad.Delay = elmoreOfSizing(o.widths[0], w.Widths)
	wantCheckFail(t, "optimizer widths RC Elmore objective", checkWidths(o.widths[0], bad))
	bad.Widths = append([]float64(nil), w.Widths...)
	for i := range bad.Widths {
		bad.Widths[i] = o.widths[0].WMin // thinnest wire everywhere: slower than the start
	}
	bad.Delay = sizingDelay(o.widths[0], bad.Widths)
	wantCheckFail(t, "optimizer widths worse than start", checkWidths(o.widths[0], bad))

	sk, err := opt.BalanceSkew(o.skews[0].p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSkew(&o.skews[0], sk); err != nil {
		t.Fatalf("the program's skew result failed: %v", err)
	}
	badSk := sk
	badSk.SkewAfter = sk.SkewBefore * 1.5
	wantCheckFail(t, "optimizer skew worse than start", checkSkew(&o.skews[0], badSk))

	rp, err := opt.InsertRepeatersTopo(o.reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRepeaters(o.reps[0], rp); err != nil {
		t.Fatalf("the program's repeater plan failed: %v", err)
	}
	if rp.K == 0 {
		t.Fatal("test problem inserts no repeater")
	}
	badRp := rp
	badRp.TotalDelay -= float64(rp.K) * o.reps[0].Rep.TIntrinsic
	wantCheckFail(t, "optimizer repeaters without K·TIntrinsic", checkRepeaters(o.reps[0], badRp))
	badRp = rp
	badRp.StageDelays = append([]float64(nil), rp.StageDelays...)
	badRp.StageDelays[0] *= 0.9
	wantCheckFail(t, "optimizer repeaters stage delay", checkRepeaters(o.reps[0], badRp))

	tp, err := opt.ExploreTopologies(o.topos[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTopology(o.topos[0], tp); err != nil {
		t.Fatalf("the program's topology failed: %v", err)
	}
	badTp := tp
	badTp.Cost = tp.MaxDelay
	wantCheckFail(t, "optimizer topology cost without λ·stub", checkTopology(o.topos[0], badTp))
	badTp = tp
	badTp.Taps = make([]int, len(tp.Taps))
	for i := range badTp.Taps {
		badTp.Taps[i] = o.topos[0].Trunk.Sections - 1 // every sink at the far end
	}
	badTp.MaxDelay, badTp.StubLength, badTp.Cost = topologyCost(o.topos[0], badTp.Taps)
	wantCheckFail(t, "optimizer topology worse than start", checkTopology(o.topos[0], badTp))
}

// elmoreOfSizing is the RC Elmore delay of a sizing design.
func elmoreOfSizing(p opt.SizingProblem, widths []float64) float64 {
	t := &ref.Tree{}
	prev := t.Add(-1, p.RDriver, 0, 0)
	for _, w := range widths {
		prev = t.Add(prev, p.Model.RUnit/w, p.Model.LUnit, p.Model.CAreaUnit*w+p.Model.CFringe)
	}
	t.Add(prev, 0, 0, p.CLoad)
	nodes := ref.Analyze(t)
	return nodes[len(nodes)-1].Elmore
}

func TestBigTreeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rt := randomValues(rng, randomParents(rng, 300), nil)
	b := &bigTree{names: []string{"random-300"}, delays: [][]float64{ref.Delays(rt)}}
	nodes, err := core.AnalyzeTree(rlcOf(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(0, nodes); err != nil {
		t.Fatalf("the program's answer failed: %v", err)
	}
	nodes[123].Delay50 = nodes[123].ElmoreDelay50
	wantCheckFail(t, "big_tree RC Elmore delay at one node", b.check(0, nodes))
	wantCheckFail(t, "big_tree missing node", b.check(0, nodes[:299]))
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
}
