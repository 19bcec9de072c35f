package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

func sessionTestTree(t *testing.T) *rlctree.Tree {
	t.Helper()
	tree, err := rlctree.Line("w", 16, rlctree.SectionValues{R: 10, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSessionDelayAtMatchesFromScratch(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	sink := tree.Sections()[tree.Len()-1]
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 100; step++ {
		sec := tree.Sections()[rng.Intn(tree.Len())]
		var serr error
		v := rng.Float64() * 20
		switch rng.Intn(3) {
		case 0:
			serr = sess.SetR(sec, v)
		case 1:
			serr = sess.SetL(sec, v*1e-10)
		default:
			serr = sess.SetC(sec, v*1e-14)
		}
		if serr != nil {
			t.Fatal(serr)
		}
		got, err := sess.DelayAt(sink)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.AtNode(sink)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Delay50(); got != want {
			t.Fatalf("step %d: incremental delay %x != from-scratch %x",
				step, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if st := sess.Stats(); st.EditsR+st.EditsL+st.EditsC == 0 {
		t.Fatal("session saw no edits")
	}
}

func TestSessionDirectTreeEditsCatchUp(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	sink := tree.Sections()[tree.Len()-1]
	before, err := sess.DelayAt(sink)
	if err != nil {
		t.Fatal(err)
	}
	// Edit the tree directly, bypassing the session.
	if err := tree.Sections()[0].SetR(500); err != nil {
		t.Fatal(err)
	}
	after, err := sess.DelayAt(sink)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("raising the driver resistance must raise the delay: %g -> %g", before, after)
	}
	m, err := core.AtNode(sink)
	if err != nil {
		t.Fatal(err)
	}
	if after != m.Delay50() {
		t.Fatal("catch-up result differs from from-scratch analysis")
	}
}

// TestSessionForeignEditsResyncOnce: an edit made on the tree around the
// session — a value edit or a structural one — is answered bit-identically
// to the serial oracle at the next query, through one counted state
// rebuild each (the structural one also counted as structurally caused),
// while edits made through the session fold in place and add none.
func TestSessionForeignEditsResyncOnce(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Sections()[tree.Len()-1]
	if _, err := sess.DelayAt(leaf); err != nil {
		t.Fatal(err)
	}
	mResyncs := obs.Default().Counter("eed_incr_resyncs_total", "")
	mStructResyncs := obs.Default().Counter("eed_incr_structural_resyncs_total", "")
	resyncs, structural := mResyncs.Value(), mStructResyncs.Value()
	check := func(step string, sink *rlctree.Section, wantResyncs, wantStructural uint64) {
		t.Helper()
		got, err := sess.DelayAt(sink)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		nodes, err := core.AnalyzeTreeCtx(context.Background(), tree)
		if err != nil {
			t.Fatal(err)
		}
		if want := nodes[sink.Index()].Delay50; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: delay %x, oracle %x", step, math.Float64bits(got), math.Float64bits(want))
		}
		if d := mResyncs.Value() - resyncs; d != wantResyncs {
			t.Fatalf("%s: %d resyncs, want %d", step, d, wantResyncs)
		}
		if d := mStructResyncs.Value() - structural; d != wantStructural {
			t.Fatalf("%s: %d structural resyncs, want %d", step, d, wantStructural)
		}
	}
	if err := tree.Sections()[0].SetR(500); err != nil {
		t.Fatal(err)
	}
	check("direct SetR", leaf, 1, 0)
	added, err := tree.AttachLeaf("extra", leaf, 1, 0, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	check("direct AttachLeaf", added, 2, 1)
	if st := sess.Stats(); st.Attaches != 0 {
		t.Fatalf("a foreign attach is rebuilt from the tree, not folded: %+v", st)
	}
	if err := sess.SetC(leaf, 70e-15); err != nil {
		t.Fatal(err)
	}
	tap, err := sess.AttachLeaf("tap", leaf, 2, 0, 5e-15)
	if err != nil {
		t.Fatal(err)
	}
	check("session edits", tap, 2, 1)
}

// TestSessionDetachOnlyRootRefused: detaching the tree's only root would
// empty the session's tree and strand the detached sections; the session
// refuses it with a topology error before anything moves.
func TestSessionDetachOnlyRootRefused(t *testing.T) {
	tree, err := rlctree.Line("w", 4, rlctree.SectionValues{R: 10, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	fp, gen := tree.Fingerprint(), tree.Gen()
	sub, err := sess.Detach(tree.Sections()[0])
	if !errors.Is(err, guard.ErrTopology) || sub != nil {
		t.Fatalf("Detach of the only root = (%v, %v), want a topology error", sub, err)
	}
	if tree.Len() != 4 || tree.Fingerprint() != fp || tree.Gen() != gen {
		t.Fatalf("refused detach changed the tree: len %d", tree.Len())
	}
	sink := tree.Sections()[3]
	got, err := sess.DelayAt(sink)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AtNode(sink)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(m.Delay50()) {
		t.Fatal("session answer changed after a refused detach")
	}
}

// TestSessionEditPathByteBudget: the optimizer inner loop — two value
// edits and one sink query — allocates nothing per cycle once warm, so
// 10,000 cycles stay under a 64 KiB budget. The bytes are read from
// runtime.MemStats.TotalAlloc, because an amortized per-edit cost (such
// as a growing history slice) reads as 0 in testing.AllocsPerRun. The
// second case arms a fault plan whose only rule never fires: the loop
// then pays one fault decision per query and still allocates nothing.
func TestSessionEditPathByteBudget(t *testing.T) {
	for _, tc := range []struct{ name, faults string }{
		{"unarmed", ""},
		{"dormant_plan", "seed=1;sess.numeric:p=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plan *faultinj.Plan
			if tc.faults != "" {
				var err error
				if plan, err = faultinj.Parse(tc.faults); err != nil {
					t.Fatal(err)
				}
				faultinj.Activate(plan)
				defer faultinj.Deactivate()
			}
			tree, err := rlctree.Line("w", 64, rlctree.SectionValues{R: 10, L: 1e-9, C: 50e-15})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(tree)
			if err != nil {
				t.Fatal(err)
			}
			secs := tree.Sections()
			sink := secs[len(secs)-1]
			const cycles = 10000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < cycles; i++ {
				sec := secs[i%len(secs)]
				w := 1 + float64(i%7)
				if err := sess.SetC(sec, 50e-15*w); err != nil {
					t.Fatal(err)
				}
				if err := sess.SetR(sec, 10/w); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.DelayAt(sink); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			const budget = 64 << 10
			if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
				t.Fatalf("%d edit-query cycles allocated %d B (%d mallocs), budget %d B",
					cycles, got, after.Mallocs-before.Mallocs, budget)
			}
			if plan != nil {
				st := plan.Stats()[0]
				if st.Calls != cycles || st.Fired != 0 {
					t.Fatalf("dormant plan saw %d decisions and %d fires over %d queries, want %d and 0",
						st.Calls, st.Fired, cycles, cycles)
				}
			}
		})
	}
}

// BenchmarkSessionQuery times the loop of TestSessionEditPathByteBudget
// on a 512-section line: one value edit, then one sink query.
func BenchmarkSessionQuery(b *testing.B) {
	tree, err := rlctree.Line("b", 512, rlctree.SectionValues{R: 25, L: 1e-9, C: 50e-15})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(tree)
	if err != nil {
		b.Fatal(err)
	}
	secs := tree.Sections()
	sink := secs[len(secs)-1]
	mid := secs[len(secs)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.SetC(mid, 50e-15+float64(i%7)*1e-15); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.DelayAt(sink); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionStructuralWrappersBitIdentical drives the session's own
// structural API — attach a stub, split it, detach it again — checking
// after every step that DelayAt matches a from-scratch core analysis bit
// for bit and that the kernel folded the ops in place (its Stats advanced,
// meaning no rebuild discarded them).
func TestSessionStructuralWrappersBitIdentical(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		for _, sec := range tree.Sections() {
			got, err := sess.DelayAt(sec)
			if err != nil {
				t.Fatalf("%s: %v", context, err)
			}
			m, err := core.AtNode(sec)
			if err != nil {
				t.Fatalf("%s: %v", context, err)
			}
			if math.Float64bits(got) != math.Float64bits(m.Delay50()) {
				t.Fatalf("%s: delay at %q diverged", context, sec.Name())
			}
		}
	}
	mid := tree.Sections()[7]
	leaf, err := sess.AttachLeaf("tap", mid, 2, 0, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	check("after AttachLeaf")

	stub := rlctree.New()
	root := stub.MustAddSection("stub0", nil, 5, 1e-10, 20e-15)
	stub.MustAddSection("stub1", root, 5, 1e-10, 20e-15)
	if _, err := sess.AttachSubtree(leaf, stub); err != nil {
		t.Fatal(err)
	}
	check("after AttachSubtree")

	if _, err := sess.SplitSection(leaf, 3); err != nil {
		t.Fatal(err)
	}
	check("after SplitSection")

	sub, err := sess.Detach(tree.Section("stub0"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("detached subtree has %d sections, want 2", sub.Len())
	}
	check("after Detach")

	st := sess.Stats()
	if st.Attaches != 2 || st.Splits != 1 || st.Detaches != 1 {
		t.Fatalf("structural ops not folded in place: %+v", st)
	}
}

func TestSessionStructuralWrapperValidation(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	other := sessionTestTree(t)
	foreign := other.Sections()[0]
	if _, err := sess.AttachLeaf("x", foreign, 1, 0, 1e-15); err == nil {
		t.Fatal("foreign parent must be rejected")
	}
	if _, err := sess.AttachSubtree(nil, tree); err == nil {
		t.Fatal("self-attach must be rejected")
	}
	if _, err := sess.Detach(foreign); err == nil {
		t.Fatal("foreign detach must be rejected")
	}
	if _, err := sess.SplitSection(foreign, 2); err == nil {
		t.Fatal("foreign split must be rejected")
	}
	// Failed structural calls must leave the session consistent.
	sink := tree.Sections()[tree.Len()-1]
	got, err := sess.DelayAt(sink)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AtNode(sink)
	if err != nil {
		t.Fatal(err)
	}
	if got != m.Delay50() {
		t.Fatal("rejected structural edits disturbed the session")
	}
}

func TestSessionAnalyzeAtMatchesAnalyzeNode(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	mid := tree.Sections()[7]
	if err := sess.SetC(mid, 80e-15); err != nil {
		t.Fatal(err)
	}
	got, err := sess.AnalyzeAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AnalyzeNode(mid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delay50 != want.Delay50 || got.RiseTime != want.RiseTime || got.Model != want.Model {
		t.Fatalf("AnalyzeAt mismatch: got %+v want %+v", got, want)
	}
}

func TestSessionEditAndAnalyze(t *testing.T) {
	tree := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	sink := tree.Sections()[tree.Len()-1]
	na, err := sess.EditAndAnalyze(context.Background(), []SectionEdit{
		{Section: tree.Sections()[0], Elem: rlctree.ElemR, Value: 100},
		{Section: sink, Elem: rlctree.ElemC, Value: 120e-15},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Sections()[0].R() != 100 || sink.C() != 120e-15 {
		t.Fatal("edits not applied to the tree")
	}
	want, err := core.AnalyzeNode(sink)
	if err != nil {
		t.Fatal(err)
	}
	if na.Delay50 != want.Delay50 {
		t.Fatal("EditAndAnalyze result differs from from-scratch analysis")
	}
	// Invalid edit is rejected with the session intact.
	if _, err := sess.EditAndAnalyze(context.Background(), []SectionEdit{
		{Section: sink, Elem: rlctree.ElemC, Value: -1},
	}, sink); err == nil {
		t.Fatal("invalid edit must fail")
	}
	if _, err := sess.DelayAt(sink); err != nil {
		t.Fatalf("session unusable after rejected edit: %v", err)
	}
}

// TestSessionAnalyzeFullTreeAndCacheCoherence: Session.Analyze holds the
// result of its tree's current generation. An unchanged tree is answered
// from it (a hit, no sweep); any move of the generation — an edit through
// the session, a direct edit on the tree, a structural round trip — makes
// the next call sweep (a miss), bit-identical to the serial oracle. The
// caller's writes to a returned slice never reach the held result.
func TestSessionAnalyzeFullTreeAndCacheCoherence(t *testing.T) {
	tree := sessionTestTree(t)
	eng := New(Options{Workers: 2})
	sess, err := newSession(eng, tree)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	analyze := func(step string, wantSweep bool) []core.NodeAnalysis {
		t.Helper()
		st0, lat0 := eng.CacheStats(), mSweepLatency.Count()
		got, err := sess.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		st, sweeps := eng.CacheStats(), mSweepLatency.Count()-lat0
		want, err := core.AnalyzeTreeCtx(ctx, tree)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		sameAnalyses(t, got, want)
		if wantSweep && (sweeps != 1 || st.Misses != st0.Misses+1 || st.Hits != st0.Hits) {
			t.Fatalf("%s: want one sweep counted as a miss, got %d sweeps, %+v -> %+v", step, sweeps, st0, st)
		}
		if !wantSweep && (sweeps != 0 || st.Hits != st0.Hits+1 || st.Misses != st0.Misses) {
			t.Fatalf("%s: want a hit and no sweep, got %d sweeps, %+v -> %+v", step, sweeps, st0, st)
		}
		return got
	}
	sinkIdx := tree.Len() - 1

	first := analyze("first analysis", true)
	sinkDelay := first[sinkIdx].Delay50
	// Vandalize the caller's copies, from a sweep and from a hit; the held
	// result must be unaffected.
	for _, got := range [][]core.NodeAnalysis{first, analyze("unchanged tree", false)} {
		got[0].Delay50 = -1
		got[0].Section = nil
	}
	analyze("unchanged tree again", false)

	if err := sess.SetR(tree.Sections()[3], 99); err != nil {
		t.Fatal(err)
	}
	if got := analyze("after a session edit", true); got[sinkIdx].Delay50 == sinkDelay {
		t.Fatal("edit had no effect on the analysis")
	}

	if err := tree.Sections()[5].SetC(80e-15); err != nil {
		t.Fatal(err)
	}
	analyze("after a direct edit on the tree", true)

	// The round trip restores the content, but the generation has moved.
	leaf, err := sess.AttachLeaf("tap", tree.Sections()[7], 2, 0, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Detach(leaf); err != nil {
		t.Fatal(err)
	}
	analyze("after AttachLeaf + Detach", true)
	analyze("unchanged after the round trip", false)
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil); err == nil {
		t.Fatal("nil tree must fail")
	}
	if _, err := NewSession(rlctree.New()); err == nil {
		t.Fatal("empty tree must fail")
	}
	tree := sessionTestTree(t)
	other := sessionTestTree(t)
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetR(other.Sections()[0], 1); err == nil {
		t.Fatal("foreign section must fail")
	}
	if _, err := sess.DelayAt(other.Sections()[0]); err == nil {
		t.Fatal("foreign sink must fail")
	}
	if _, err := sess.DelayAt(nil); err == nil {
		t.Fatal("nil sink must fail")
	}
}
