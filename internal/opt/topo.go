// Topology optimization on live trees. Where opt.go's optimizers tune
// element values of a fixed topology, the optimizers here change the tree
// itself: InsertRepeatersTopo breaks a line into stages by surgically
// detaching the downstream subtree and re-driving it behind a repeater,
// and ExploreTopologies re-homes sink stubs between trunk taps. Every
// candidate is evaluated as a structural edit (attach/detach/split on the
// live tree), an O(depth) incremental delay query, and an exact undo via
// the inverse edit — the workload the structural-incremental kernel
// exists for.
//
// Each optimizer has a rebuild twin (...Rebuild, in rebuild_test.go) that
// performs the same surgeries on its own tree but prices every delay
// query at the pre-incremental cost: clone the tree and run the full O(n)
// summation passes. Both twins execute bit-identical floating-point work in the
// same order, so they take identical greedy decisions and return
// identical plans — the twin pair isolates the evaluation mechanism, and
// the benchmark ratio between them is the speedup of the structural
// kernel.
package opt

import (
	"fmt"
	"math"

	"eedtree/internal/engine"
	"eedtree/internal/rlctree"
)

// topoEval is one tree under structural edit and delay query. The two
// implementations — incremental session and rebuild-per-query — expose
// the same operations so the optimizer drivers run identically on both.
type topoEval interface {
	attachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error)
	attachSubtree(parent *rlctree.Section, src *rlctree.Tree) error
	detach(sec *rlctree.Section) (*rlctree.Tree, error)
	split(sec *rlctree.Section, k int) error
	setR(sec *rlctree.Section, v float64) error
	setC(sec *rlctree.Section, v float64) error
	delayAt(sink *rlctree.Section) (float64, error)
	tree() *rlctree.Tree
}

// mkTopoEval builds an evaluator owning the given tree; the optimizer
// drivers are parameterized over it so each public optimizer and its
// rebuild twin share one code path (identical op sequence → identical
// floats → identical decisions).
type mkTopoEval func(t *rlctree.Tree) (topoEval, error)

// sessionTopoEval evaluates on an incremental engine session: structural
// edits are folded into the kernel state in place and each delay query is
// an O(depth) path walk.
type sessionTopoEval struct{ s *engine.Session }

func newSessionTopoEval(t *rlctree.Tree) (topoEval, error) {
	s, err := engine.NewSession(t)
	if err != nil {
		return nil, err
	}
	return &sessionTopoEval{s: s}, nil
}

func (e *sessionTopoEval) attachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error) {
	return e.s.AttachLeaf(name, parent, r, l, c)
}

func (e *sessionTopoEval) attachSubtree(parent *rlctree.Section, src *rlctree.Tree) error {
	_, err := e.s.AttachSubtree(parent, src)
	return err
}

func (e *sessionTopoEval) detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	return e.s.Detach(sec)
}

func (e *sessionTopoEval) split(sec *rlctree.Section, k int) error {
	_, err := e.s.SplitSection(sec, k)
	return err
}

func (e *sessionTopoEval) setR(sec *rlctree.Section, v float64) error { return e.s.SetR(sec, v) }
func (e *sessionTopoEval) setC(sec *rlctree.Section, v float64) error { return e.s.SetC(sec, v) }

func (e *sessionTopoEval) delayAt(sink *rlctree.Section) (float64, error) {
	return e.s.DelayAt(sink)
}

func (e *sessionTopoEval) tree() *rlctree.Tree { return e.s.Tree() }

// TopoRepeaterProblem describes delay-driven repeater insertion by
// topology surgery: a source-driven line into a load, a repeater cell,
// and the size range to search per placement.
type TopoRepeaterProblem struct {
	Line    LineSpec
	Rep     Repeater
	RSource float64 // driver (source) resistance, ohms, ≥ 0
	CLoad   float64 // receiver load capacitance, farads, ≥ 0
	MaxK    int     // maximum number of repeaters to insert, ≥ 0

	// SizeMin/SizeMax bound the golden-section size search per placement.
	SizeMin, SizeMax float64

	// Resegment ≥ 2 splits every wire section into that many subsections
	// through the evaluator before optimizing, refining the candidate
	// grid. 0 or 1 leaves the line's own discretization.
	Resegment int
}

func (p TopoRepeaterProblem) validate() error {
	if err := p.Line.validate(); err != nil {
		return err
	}
	if err := p.Rep.validate(); err != nil {
		return err
	}
	if !(p.RSource >= 0) || !(p.CLoad >= 0) {
		return fmt.Errorf("opt: invalid RSource=%g CLoad=%g", p.RSource, p.CLoad)
	}
	if p.MaxK < 0 {
		return fmt.Errorf("opt: MaxK must be ≥ 0, got %d", p.MaxK)
	}
	if !(p.SizeMin > 0) || !(p.SizeMax > p.SizeMin) {
		return fmt.Errorf("opt: need 0 < SizeMin < SizeMax, got [%g, %g]", p.SizeMin, p.SizeMax)
	}
	if p.Resegment < 0 {
		return fmt.Errorf("opt: Resegment must be ≥ 0, got %d", p.Resegment)
	}
	return nil
}

// TopoPlacement is one accepted repeater: inserted immediately after the
// named section, at the given size.
type TopoPlacement struct {
	After string
	Size  float64
}

// TopoPlan is the result of topology-level repeater insertion.
type TopoPlan struct {
	K           int             // repeaters inserted
	Placements  []TopoPlacement // in acceptance order
	StageDelays []float64       // per-stage sink delay, source to load [s]
	TotalDelay  float64         // Σ stage delays + K·TIntrinsic [s]
	Evals       int             // delay-objective evaluations performed
}

// repStage is one repeater stage of the evolving design: its own tree
// under its own evaluator, the stage's driving section, its output sink
// (the next repeater's input, or the final load) and the cached sink
// delay.
type repStage struct {
	ev    topoEval
	drv   *rlctree.Section
	sink  *rlctree.Section
	delay float64
}

// InsertRepeatersTopo inserts up to MaxK repeaters into the line greedily
// by delay: each round tries every interior point of every stage as a
// placement — detach the downstream subtree, terminate the stage with the
// repeater's input capacitance, re-drive the subtree from the repeater's
// output resistance, golden-search the size with value edits only, undo —
// and keeps the best placement if it lowers the total delay. Unlike
// InsertRepeaters (uniform stages, analytic symmetry), this explores
// non-uniform placements on arbitrary discretizations, which is only
// tractable because each candidate costs a couple of O(depth) structural
// edits and queries instead of a rebuild.
func InsertRepeatersTopo(p TopoRepeaterProblem) (TopoPlan, error) {
	return insertRepeatersTopo(p, newSessionTopoEval)
}

func insertRepeatersTopo(p TopoRepeaterProblem, mk mkTopoEval) (TopoPlan, error) {
	if err := p.validate(); err != nil {
		return TopoPlan{}, err
	}
	tree, sink, err := segmentTree(p.RSource, p.Line, p.CLoad)
	if err != nil {
		return TopoPlan{}, err
	}
	ev, err := mk(tree)
	if err != nil {
		return TopoPlan{}, err
	}
	if p.Resegment > 1 {
		// Snapshot the wire sections first: splitting mutates the slice
		// the tree hands out.
		var wires []*rlctree.Section
		for _, s := range tree.Sections() {
			if name := s.Name(); name != "drv" && name != "load" {
				wires = append(wires, s)
			}
		}
		for _, w := range wires {
			if err := ev.split(w, p.Resegment); err != nil {
				return TopoPlan{}, err
			}
		}
	}

	stages := []*repStage{{ev: ev, drv: tree.Section("drv"), sink: sink}}
	refresh := func(stg *repStage) error {
		d, err := stg.ev.delayAt(stg.sink)
		if err != nil {
			return err
		}
		stg.delay = d
		return nil
	}
	if err := refresh(stages[0]); err != nil {
		return TopoPlan{}, err
	}
	total := stages[0].delay

	plan := TopoPlan{}
	scaffoldSerial := 0
	for len(stages)-1 < p.MaxK {
		// The scaffold is a lone driver section: the repeater-under-test
		// drives each candidate's detached subtree from it, and if a
		// candidate wins the round the scaffold is promoted to a stage.
		scaffoldSerial++
		scTree := rlctree.New()
		scDrv, err := scTree.AddSection(fmt.Sprintf("rdrv%d", scaffoldSerial), nil,
			p.Rep.ROut/p.SizeMin, 0, 0)
		if err != nil {
			return plan, err
		}
		sc, err := mk(scTree)
		if err != nil {
			return plan, err
		}

		type candidate struct {
			stage int
			v     *rlctree.Section
			size  float64
			total float64
			ok    bool
		}
		var best candidate
		for j, stg := range stages {
			// Delay contributed by everything this candidate does not
			// touch, plus the intrinsic delay of all repeaters including
			// the one under test.
			base := p.Rep.TIntrinsic * float64(len(stages))
			for k, other := range stages {
				if k != j {
					base += other.delay
				}
			}
			// Snapshot the candidate points: every chain-interior section.
			// The structural churn below reorders the live slice, but each
			// undo restores the exact tree, so the pointers stay good.
			var cands []*rlctree.Section
			for _, s := range stg.ev.tree().Sections() {
				if len(s.Children()) == 1 {
					cands = append(cands, s)
				}
			}
			for _, v := range cands {
				child := v.Children()[0]
				sub, err := stg.ev.detach(child)
				if err != nil {
					return plan, err
				}
				cin, err := stg.ev.attachLeaf("cand", v, 0, 0, p.Rep.CIn*p.SizeMin)
				if err != nil {
					return plan, err
				}
				if err := sc.attachSubtree(scDrv, sub); err != nil {
					return plan, err
				}
				var objErr error
				obj := func(size float64) float64 {
					// Value edits only: the candidate topology is fixed
					// during the size search.
					if err := stg.ev.setC(cin, p.Rep.CIn*size); err != nil {
						objErr = err
						return math.Inf(1)
					}
					if err := sc.setR(scDrv, p.Rep.ROut/size); err != nil {
						objErr = err
						return math.Inf(1)
					}
					dUp, err := stg.ev.delayAt(cin)
					if err != nil {
						objErr = err
						return math.Inf(1)
					}
					dDown, err := sc.delayAt(stg.sink)
					if err != nil {
						objErr = err
						return math.Inf(1)
					}
					plan.Evals++
					return base + dUp + dDown
				}
				size, ftot := goldenSection(obj, p.SizeMin, p.SizeMax, 1e-6)
				// Undo in reverse: pull the subtree back out of the
				// scaffold, drop the candidate input cap, graft the
				// subtree where it came from. All three are suffix
				// detaches/appends, so the stage tree is restored to the
				// exact array order it had.
				sub2, err := sc.detach(child)
				if err != nil {
					return plan, err
				}
				if _, err := stg.ev.detach(cin); err != nil {
					return plan, err
				}
				if err := stg.ev.attachSubtree(v, sub2); err != nil {
					return plan, err
				}
				if objErr != nil {
					return plan, objErr
				}
				if !best.ok || ftot < best.total {
					best = candidate{stage: j, v: v, size: size, total: ftot, ok: true}
				}
			}
		}
		if !best.ok || !(best.total < total) {
			break
		}
		// Re-apply the winning placement for keeps and promote the
		// scaffold to a stage.
		stg := stages[best.stage]
		child := best.v.Children()[0]
		sub, err := stg.ev.detach(child)
		if err != nil {
			return plan, err
		}
		cin, err := stg.ev.attachLeaf(fmt.Sprintf("rep%d", len(stages)), best.v,
			0, 0, p.Rep.CIn*best.size)
		if err != nil {
			return plan, err
		}
		if err := sc.attachSubtree(scDrv, sub); err != nil {
			return plan, err
		}
		if err := sc.setR(scDrv, p.Rep.ROut/best.size); err != nil {
			return plan, err
		}
		newStage := &repStage{ev: sc, drv: scDrv, sink: stg.sink}
		stg.sink = cin
		if err := refresh(stg); err != nil {
			return plan, err
		}
		if err := refresh(newStage); err != nil {
			return plan, err
		}
		stages = append(stages, nil)
		copy(stages[best.stage+2:], stages[best.stage+1:])
		stages[best.stage+1] = newStage
		total = best.total
		plan.Placements = append(plan.Placements, TopoPlacement{After: best.v.Name(), Size: best.size})
	}

	plan.K = len(stages) - 1
	plan.StageDelays = make([]float64, len(stages))
	for i, stg := range stages {
		plan.StageDelays[i] = stg.delay
	}
	plan.TotalDelay = total
	return plan, nil
}

// SinkSpec is one receiver of a routing net: a position along the trunk
// in [0, 1] and its input capacitance.
type SinkSpec struct {
	Name  string
	Pos   float64
	CLoad float64 // farads, > 0
}

// TopologyProblem describes a SALT-style shallow/light trade-off: sinks
// hang off a discretized trunk via stubs, and the optimizer chooses which
// trunk tap each sink connects to, trading the worst sink delay (shallow)
// against total stub wirelength (light) through the Lambda weight.
type TopologyProblem struct {
	Trunk   LineSpec // trunk wire; Sections is the number of taps
	RSource float64  // trunk driver resistance, ohms, ≥ 0
	Sinks   []SinkSpec

	// Stub wire per unit trunk length (the trunk spans length 1).
	StubRPerLen, StubLPerLen, StubCPerLen float64

	// Lambda weighs total stub length against worst-case delay in the
	// cost MaxDelay + Lambda·StubLength [s per unit length].
	Lambda float64

	// MaxPasses bounds the greedy improvement passes; 0 means a default.
	MaxPasses int
}

func (p TopologyProblem) validate() error {
	if err := p.Trunk.validate(); err != nil {
		return err
	}
	if !(p.RSource >= 0) {
		return fmt.Errorf("opt: invalid RSource=%g", p.RSource)
	}
	if len(p.Sinks) == 0 {
		return fmt.Errorf("opt: topology exploration needs ≥ 1 sink")
	}
	for i, s := range p.Sinks {
		if s.Name == "" {
			return fmt.Errorf("opt: sink %d has no name", i)
		}
		if !(s.Pos >= 0 && s.Pos <= 1) || !(s.CLoad > 0) {
			return fmt.Errorf("opt: invalid sink %q: Pos=%g CLoad=%g", s.Name, s.Pos, s.CLoad)
		}
	}
	if !(p.StubRPerLen >= 0) || !(p.StubLPerLen >= 0) || !(p.StubCPerLen >= 0) {
		return fmt.Errorf("opt: invalid stub wire model R=%g L=%g C=%g",
			p.StubRPerLen, p.StubLPerLen, p.StubCPerLen)
	}
	if !(p.Lambda >= 0) {
		return fmt.Errorf("opt: Lambda must be ≥ 0, got %g", p.Lambda)
	}
	if p.MaxPasses < 0 {
		return fmt.Errorf("opt: MaxPasses must be ≥ 0, got %d", p.MaxPasses)
	}
	return nil
}

// TopologyResult is the explored net: the chosen tap per sink plus the
// cost terms at the final assignment.
type TopologyResult struct {
	Taps       []int   // trunk tap index (0-based) per sink
	MaxDelay   float64 // worst sink delay [s]
	StubLength float64 // total stub length, trunk-length units
	Cost       float64 // MaxDelay + Lambda·StubLength
	Passes     int     // improvement passes run
	Moves      int     // re-homing moves accepted
	Evals      int     // full-cost evaluations performed
}

// ExploreTopologies greedily re-homes sink stubs between trunk taps to
// minimize MaxDelay + Lambda·StubLength, starting from the
// nearest-tap assignment. Every candidate move is a real structural edit —
// detach the sink's stub leaf, re-attach it at the other tap with the
// stub values for the new length — evaluated through O(depth) incremental
// queries and undone the same way when it does not pay.
func ExploreTopologies(p TopologyProblem) (TopologyResult, error) {
	return exploreTopologies(p, newSessionTopoEval)
}

func exploreTopologies(p TopologyProblem, mk mkTopoEval) (TopologyResult, error) {
	if err := p.validate(); err != nil {
		return TopologyResult{}, err
	}
	maxPasses := p.MaxPasses
	if maxPasses == 0 {
		maxPasses = 8
	}
	nTaps := p.Trunk.Sections
	tapPos := func(tap int) float64 { return float64(tap+1) / float64(nTaps) }
	stubVals := func(s SinkSpec, tap int) (r, l, c float64) {
		length := math.Abs(s.Pos - tapPos(tap))
		return p.StubRPerLen * length, p.StubLPerLen * length, p.StubCPerLen*length + s.CLoad
	}

	// Trunk: drv → t1..tn, tap i being section t(i+1) at position (i+1)/n.
	tree := rlctree.New()
	parent, err := tree.AddSection("drv", nil, p.RSource, 0, 0)
	if err != nil {
		return TopologyResult{}, err
	}
	taps := make([]*rlctree.Section, nTaps)
	for i := 0; i < nTaps; i++ {
		s, err := tree.AddSection(fmt.Sprintf("t%d", i+1), parent,
			p.Trunk.R/float64(nTaps), p.Trunk.L/float64(nTaps), p.Trunk.C/float64(nTaps))
		if err != nil {
			return TopologyResult{}, err
		}
		taps[i] = s
		parent = s
	}
	ev, err := mk(tree)
	if err != nil {
		return TopologyResult{}, err
	}

	// Initial assignment: nearest tap, attached through the evaluator.
	assign := make([]int, len(p.Sinks))
	leaves := make([]*rlctree.Section, len(p.Sinks))
	for i, s := range p.Sinks {
		bestTap, bestDist := 0, math.Inf(1)
		for tap := 0; tap < nTaps; tap++ {
			if d := math.Abs(s.Pos - tapPos(tap)); d < bestDist {
				bestTap, bestDist = tap, d
			}
		}
		r, l, c := stubVals(s, bestTap)
		leaf, err := ev.attachLeaf(s.Name, taps[bestTap], r, l, c)
		if err != nil {
			return TopologyResult{}, err
		}
		assign[i] = bestTap
		leaves[i] = leaf
	}

	res := TopologyResult{}
	cost := func() (c, maxD, stub float64, err error) {
		maxD = math.Inf(-1)
		for _, leaf := range leaves {
			d, err := ev.delayAt(leaf)
			if err != nil {
				return 0, 0, 0, err
			}
			if d > maxD {
				maxD = d
			}
		}
		for i, s := range p.Sinks {
			stub += math.Abs(s.Pos - tapPos(assign[i]))
		}
		res.Evals++
		return maxD + p.Lambda*stub, maxD, stub, nil
	}
	move := func(i, tap int) error {
		if _, err := ev.detach(leaves[i]); err != nil {
			return err
		}
		r, l, c := stubVals(p.Sinks[i], tap)
		leaf, err := ev.attachLeaf(p.Sinks[i].Name, taps[tap], r, l, c)
		if err != nil {
			return err
		}
		leaves[i] = leaf
		assign[i] = tap
		return nil
	}

	cur, maxD, stub, err := cost()
	if err != nil {
		return TopologyResult{}, err
	}
	for res.Passes < maxPasses {
		res.Passes++
		improved := false
		for i := range p.Sinks {
			for tap := 0; tap < nTaps; tap++ {
				if tap == assign[i] {
					continue
				}
				prev := assign[i]
				if err := move(i, tap); err != nil {
					return res, err
				}
				c2, m2, s2, err := cost()
				if err != nil {
					return res, err
				}
				if c2 < cur {
					cur, maxD, stub = c2, m2, s2
					res.Moves++
					improved = true
				} else if err := move(i, prev); err != nil {
					return res, err
				}
			}
		}
		if !improved {
			break
		}
	}

	res.Taps = assign
	res.MaxDelay = maxD
	res.StubLength = stub
	res.Cost = cur
	return res, nil
}
