// Package timing chains the equivalent Elmore delay model into a
// stage-based path timing engine: each stage is a driver resistance, an
// RLC interconnect tree and receiver loads; the signal slew (rise time)
// measured at a stage's output becomes the input slew of the next stage,
// modeled with the paper's exponential-input closed form (eqs. 43–48).
// This is the "fast delay estimation for critical paths" workflow the
// paper's introduction describes as the Elmore model's industrial role,
// upgraded to RLC.
package timing

import (
	"fmt"
	"math"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
	"eedtree/internal/waveform"
)

// Stage is one driver + interconnect + receivers segment of a path.
type Stage struct {
	Name    string
	RDriver float64            // driver Thevenin output resistance [Ω], ≥ 0
	TGate   float64            // intrinsic gate delay added at the stage input [s], ≥ 0
	Tree    *rlctree.Tree      // interconnect tree (not modified)
	Sink    string             // section whose node drives the next stage (or the path endpoint)
	Loads   map[string]float64 // extra receiver capacitance per section name [F]
}

// StageResult is the timing of one stage.
type StageResult struct {
	Name       string
	Zeta       float64 // equivalent damping at the observed sink
	Delay      float64 // input-50% to output-50% delay, plus TGate [s]
	OutputRise float64 // 10–90% rise time at the sink [s]
	Arrival    float64 // cumulative arrival at the sink [s]
}

// PathResult is the timing of a whole path.
type PathResult struct {
	Stages  []StageResult
	Arrival float64 // arrival at the final sink [s]
}

// AnalyzePath times a chain of stages. inputRise is the 10–90% rise time
// of the signal entering the first stage (0 for an ideal step); each
// stage's measured output rise drives the next stage as an exponential
// input with matching rise time, per the paper's Sec. V-A input model.
func AnalyzePath(stages []Stage, inputRise float64) (PathResult, error) {
	if len(stages) == 0 {
		return PathResult{}, fmt.Errorf("timing: empty path")
	}
	if inputRise < 0 || math.IsNaN(inputRise) {
		return PathResult{}, fmt.Errorf("timing: invalid input rise time %g", inputRise)
	}
	var res PathResult
	rise := inputRise
	for i := range stages {
		sr, err := analyzeStage(&stages[i], rise)
		if err != nil {
			return PathResult{}, fmt.Errorf("timing: stage %d (%s): %w", i+1, stages[i].Name, err)
		}
		res.Arrival += sr.Delay
		sr.Arrival = res.Arrival
		res.Stages = append(res.Stages, sr)
		rise = sr.OutputRise
	}
	return res, nil
}

// analyzeStage builds the loaded stage network and times it for an
// exponential input with the given 10–90% rise time (step when 0).
func analyzeStage(st *Stage, inputRise float64) (StageResult, error) {
	if st.Tree == nil || st.Tree.Len() == 0 {
		return StageResult{}, fmt.Errorf("missing interconnect tree")
	}
	if st.RDriver < 0 || st.TGate < 0 || math.IsNaN(st.RDriver+st.TGate) {
		return StageResult{}, fmt.Errorf("invalid driver parameters R=%g T=%g", st.RDriver, st.TGate)
	}
	if st.Tree.Section(st.Sink) == nil {
		return StageResult{}, fmt.Errorf("unknown sink section %q", st.Sink)
	}
	// Assemble: driver section → a copy of the stage tree → load caps at
	// named nodes. AttachSubtree returns the moved sections in source
	// index order, so copies[i] is the copy of st.Tree's section i.
	net := rlctree.New()
	var root *rlctree.Section
	if st.RDriver > 0 {
		var err error
		root, err = net.AddSection("__drv", nil, st.RDriver, 0, 0)
		if err != nil {
			return StageResult{}, err
		}
	}
	copies, err := net.AttachSubtree(root, st.Tree.Clone())
	if err != nil {
		return StageResult{}, err
	}
	for name, c := range st.Loads {
		s := st.Tree.Section(name)
		if s == nil {
			return StageResult{}, fmt.Errorf("load at unknown section %q", name)
		}
		if c < 0 || math.IsNaN(c) {
			return StageResult{}, fmt.Errorf("invalid load %g at %q", c, name)
		}
		if c == 0 {
			continue
		}
		if _, err := net.AddSection("__load_"+name, copies[s.Index()], 0, 0, c); err != nil {
			return StageResult{}, err
		}
	}
	sinkCopy := copies[st.Tree.Section(st.Sink).Index()]
	model, err := core.AtNode(sinkCopy)
	if err != nil {
		return StageResult{}, err
	}
	out := StageResult{Name: st.Name, Zeta: model.Zeta()}
	if inputRise == 0 {
		out.Delay = st.TGate + model.Delay50()
		out.OutputRise = model.RiseTime()
		return out, nil
	}
	// Exponential input with matching 10–90% rise: tau = rise/ln(9).
	tau := inputRise / math.Log(9)
	f, err := model.ExpResponse(1, tau)
	if err != nil {
		return StageResult{}, err
	}
	horizon := 10 * (model.Delay50() + tau)
	if ts, err := model.SettlingTime(core.SettlingBand); err == nil && 2*ts+8*tau > horizon {
		horizon = 2*ts + 8*tau
	}
	// Errors from analyzeStage are wrapped by AnalyzePath with the
	// package prefix; adding it here too would double it ("timing:
	// stage 1 (x): timing: …").
	w, err := waveform.Sample(f, 0, horizon, 20000)
	if err != nil {
		return StageResult{}, fmt.Errorf("sampling response: %w", err)
	}
	t50, err := w.Delay50(1)
	if err != nil {
		return StageResult{}, fmt.Errorf("output never crossed 50%%: %w", err)
	}
	riseOut, err := w.RiseTime(1)
	if err != nil {
		return StageResult{}, fmt.Errorf("output rise: %w", err)
	}
	// Stage delay = output 50% crossing − input 50% crossing.
	in50 := math.Ln2 * tau
	out.Delay = st.TGate + t50 - in50
	out.OutputRise = riseOut
	return out, nil
}
