package timing

import (
	"math"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
)

func lineStage(t *testing.T, name string) Stage {
	t.Helper()
	tree, err := rlctree.Line("w", 8, rlctree.SectionValues{R: 15, L: 0.8e-9, C: 40e-15})
	if err != nil {
		t.Fatal(err)
	}
	return Stage{
		Name:    name,
		RDriver: 120,
		TGate:   8e-12,
		Tree:    tree,
		Sink:    "w8",
		Loads:   map[string]float64{"w8": 30e-15},
	}
}

func TestAnalyzePathValidation(t *testing.T) {
	if _, err := AnalyzePath(nil, 0); err == nil {
		t.Fatal("empty path must fail")
	}
	st := lineStage(t, "s")
	if _, err := AnalyzePath([]Stage{st}, -1); err == nil {
		t.Fatal("negative input rise must fail")
	}
	bad := st
	bad.Sink = "nope"
	if _, err := AnalyzePath([]Stage{bad}, 0); err == nil {
		t.Fatal("unknown sink must fail")
	}
	bad = st
	bad.Tree = nil
	if _, err := AnalyzePath([]Stage{bad}, 0); err == nil {
		t.Fatal("missing tree must fail")
	}
	bad = st
	bad.RDriver = -5
	if _, err := AnalyzePath([]Stage{bad}, 0); err == nil {
		t.Fatal("negative driver resistance must fail")
	}
	bad = st
	bad.Loads = map[string]float64{"nope": 1e-15}
	if _, err := AnalyzePath([]Stage{bad}, 0); err == nil {
		t.Fatal("load at unknown section must fail")
	}
	bad = st
	bad.Loads = map[string]float64{"w8": -1e-15}
	if _, err := AnalyzePath([]Stage{bad}, 0); err == nil {
		t.Fatal("negative load must fail")
	}
}

// TestSingleStageStepMatchesCore: with an ideal step input the stage delay
// must equal TGate plus the core model's Delay50 of the loaded network.
func TestSingleStageStepMatchesCore(t *testing.T) {
	st := lineStage(t, "s1")
	res, err := AnalyzePath([]Stage{st}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the loaded network by hand.
	net := rlctree.New()
	drv := net.MustAddSection("__drv", nil, st.RDriver, 0, 0)
	copies, err := net.AttachSubtree(drv, st.Tree.Clone())
	if err != nil {
		t.Fatal(err)
	}
	net.MustAddSection("load", copies[st.Tree.Section("w8").Index()], 0, 0, 30e-15)
	m, err := core.AtNode(copies[st.Tree.Section("w8").Index()])
	if err != nil {
		t.Fatal(err)
	}
	want := st.TGate + m.Delay50()
	if math.Abs(res.Arrival-want) > 1e-15 {
		t.Fatalf("arrival %g, want %g", res.Arrival, want)
	}
	if got := res.Stages[0].OutputRise; math.Abs(got-m.RiseTime()) > 1e-15 {
		t.Fatalf("output rise %g, want %g", got, m.RiseTime())
	}
	if res.Stages[0].Zeta != m.Zeta() {
		t.Fatal("stage ζ mismatch")
	}
}

// TestSlewDegradesAlongPassiveChain: stages here have no gain element, so
// edges degrade monotonically along the chain (each stage's output is
// slower than its input — the physical reason real paths need repeaters),
// with the incremental degradation shrinking as the edge becomes slow
// relative to the stage's own time constant. Arrivals must strictly
// accumulate.
func TestSlewDegradesAlongPassiveChain(t *testing.T) {
	var stages []Stage
	for i := 0; i < 6; i++ {
		stages = append(stages, lineStage(t, "s"))
	}
	res, err := AnalyzePath(stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 6 {
		t.Fatalf("stage count %d", len(res.Stages))
	}
	prevArrival := 0.0
	prevRise := 0.0
	for i, sr := range res.Stages {
		if sr.Arrival <= prevArrival {
			t.Fatalf("arrival not increasing at stage %d", i+1)
		}
		if sr.OutputRise <= prevRise {
			t.Fatalf("slew did not degrade at stage %d: %g then %g", i+1, prevRise, sr.OutputRise)
		}
		prevArrival, prevRise = sr.Arrival, sr.OutputRise
	}
	// Diminishing degradation: the last increment is below the first.
	first := res.Stages[1].OutputRise - res.Stages[0].OutputRise
	last := res.Stages[5].OutputRise - res.Stages[4].OutputRise
	if last >= first {
		t.Fatalf("slew degradation not diminishing: Δ first %g, Δ last %g", first, last)
	}
}

// TestSlowInputSlowsOutputRise: feeding a much slower edge into a stage
// must slow its output edge too.
func TestSlowInputSlowsOutputRise(t *testing.T) {
	st := lineStage(t, "s")
	fast, err := AnalyzePath([]Stage{st}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := AnalyzePath([]Stage{st}, 20*fast.Stages[0].OutputRise)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stages[0].OutputRise <= fast.Stages[0].OutputRise {
		t.Fatalf("slow input rise %g did not slow the output (fast %g, slow %g)",
			20*fast.Stages[0].OutputRise, fast.Stages[0].OutputRise, slow.Stages[0].OutputRise)
	}
}

// TestZeroDriverResistance: a stage driven by an ideal source still works.
func TestZeroDriverResistance(t *testing.T) {
	st := lineStage(t, "s")
	st.RDriver = 0
	st.TGate = 0
	res, err := AnalyzePath([]Stage{st}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrival <= 0 {
		t.Fatalf("arrival = %g", res.Arrival)
	}
}

// TestStepVsSlowInputDelayConsistency: the 50%-to-50% stage delay is
// relatively insensitive to the input slew (that is why the metric is
// defined that way); it must stay within a factor of ~2 across a 10×
// slew range for this stage.
func TestStepVsSlowInputDelayConsistency(t *testing.T) {
	st := lineStage(t, "s")
	step, err := AnalyzePath([]Stage{st}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := AnalyzePath([]Stage{st}, 10*step.Stages[0].OutputRise)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Stages[0].Delay / step.Stages[0].Delay
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("50-50 delay unstable across slews: ratio %g", ratio)
	}
}
