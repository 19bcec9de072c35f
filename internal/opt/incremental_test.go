package opt

import (
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/obs"
)

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSizingEvalMatchesRebuild: the incremental sizing evaluator must agree
// bit for bit with the from-scratch evaluation after arbitrary width-edit
// sequences — the opt-level face of the internal/incr contract.
func TestSizingEvalMatchesRebuild(t *testing.T) {
	p := testSizing
	widths := make([]float64, p.Segments)
	for i := range widths {
		widths[i] = 1
	}
	ev, err := newSizingEval(p, widths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 200; step++ {
		i := rng.Intn(p.Segments)
		w := p.WMin + rng.Float64()*(p.WMax-p.WMin)
		if err := ev.setWidth(i, w); err != nil {
			t.Fatal(err)
		}
		widths[i] = w
		got, err := ev.delay()
		if err != nil {
			t.Fatal(err)
		}
		want, err := delayRebuild(p, widths)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(got, want) {
			t.Fatalf("step %d: incremental delay %x != rebuild %x",
				step, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestOptimizeWidthsMatchesRebuildTwin: both twins run the identical
// coordinate-descent core over bit-identical objectives, so they must take
// the same descent path and return the same result to the last bit.
func TestOptimizeWidthsMatchesRebuildTwin(t *testing.T) {
	inc, err := OptimizeWidths(testSizing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reb, err := optimizeWidthsRebuild(testSizing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(inc.Delay, reb.Delay) {
		t.Fatalf("delays diverge: %x vs %x",
			math.Float64bits(inc.Delay), math.Float64bits(reb.Delay))
	}
	if inc.Sweeps != reb.Sweeps || inc.Converged != reb.Converged {
		t.Fatalf("descent paths diverge: %d/%v vs %d/%v sweeps",
			inc.Sweeps, inc.Converged, reb.Sweeps, reb.Converged)
	}
	for i := range inc.Widths {
		if !bitsEq(inc.Widths[i], reb.Widths[i]) {
			t.Fatalf("width %d diverges: %g vs %g", i, inc.Widths[i], reb.Widths[i])
		}
	}
	if !inc.Converged {
		t.Fatal("test sizing problem should converge within the default sweep bound")
	}
	if inc.Sweeps < 1 {
		t.Fatal("no sweeps recorded")
	}
}

// TestStageEvalMatchesStageDelay: repeated size edits on a live stage
// session agree bit for bit with from-scratch stage evaluations.
func TestStageEvalMatchesStageDelay(t *testing.T) {
	const k = 3
	ev, err := newStageEval(testLine, testRep, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 100; step++ {
		size := 0.5 + rng.Float64()*200
		got, err := ev.delay(size)
		if err != nil {
			t.Fatal(err)
		}
		want, err := StageDelay(testLine, testRep, k, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(got, want) {
			t.Fatalf("step %d (size %g): incremental stage delay %x != from-scratch %x",
				step, size, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if _, err := ev.delay(0); err == nil {
		t.Fatal("size 0 must fail")
	}
}

// TestSkewEvalMatchesSkewOf: the session-backed skew objective agrees bit
// for bit with the rebuild-per-candidate evaluation.
func TestSkewEvalMatchesSkewOf(t *testing.T) {
	tree, tunable := imbalancedClockTree(t)
	p := SkewProblem{Tree: tree, Tunable: tunable, WMin: 0.4, WMax: 6}
	ev, err := newSkewEval(p)
	if err != nil {
		t.Fatal(err)
	}
	widths := make(map[string]float64, len(tunable))
	for _, name := range tunable {
		widths[name] = 1
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 60; step++ {
		name := tunable[rng.Intn(len(tunable))]
		w := p.WMin + rng.Float64()*(p.WMax-p.WMin)
		if err := ev.setWidth(name, w); err != nil {
			t.Fatal(err)
		}
		widths[name] = w
		got, err := ev.skew()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.skewOf(widths)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEq(got, want) {
			t.Fatalf("step %d: incremental skew %x != rebuild %x",
				step, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestDelayUsesSessionPathConsistency: the public one-shot Delay and an
// incremental session seeded at the same widths agree bit for bit.
func TestDelayUsesSessionPathConsistency(t *testing.T) {
	widths := make([]float64, testSizing.Segments)
	for i := range widths {
		widths[i] = 2
	}
	want, err := testSizing.Delay(widths)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newSizingEval(testSizing, widths)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.delay()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(got, want) {
		t.Fatalf("session delay %x != one-shot %x",
			math.Float64bits(got), math.Float64bits(want))
	}
}

// TestOptimizerSolvesAddNoResyncs: the optimizers make every edit through
// their sessions, so a full solve folds each one in place and never
// rebuilds a session's state from the tree.
func TestOptimizerSolvesAddNoResyncs(t *testing.T) {
	resyncs := obs.Default().Counter("eed_incr_resyncs_total", "")
	structural := obs.Default().Counter("eed_incr_structural_resyncs_total", "")
	r0, s0 := resyncs.Value(), structural.Value()
	if _, err := OptimizeWidths(testSizing, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := InsertRepeatersTopo(testTopoRep); err != nil {
		t.Fatal(err)
	}
	if r, s := resyncs.Value()-r0, structural.Value()-s0; r != 0 || s != 0 {
		t.Fatalf("solves resynced %d times (%d structural), want none", r, s)
	}
}
