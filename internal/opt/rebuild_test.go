package opt

import (
	"fmt"
	"math"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
)

// The rebuild twins of the optimizers: the same drivers over evaluators
// that price every delay query at the pre-incremental cost — a tree
// rebuild or clone plus the full O(n) summation passes. They are the
// reference the bit-identity tests compare the incremental optimizers
// against, and the baseline of the speedup gates
// (TestIncrementalOptimizerSpeedup, TestStructuralOptimizerSpeedup) and
// of the *Rebuild benchmarks.

// rebuildSizingEval is the pre-incremental behavior: every evaluation
// reconstructs the tree and re-runs the full O(n) summation passes. It is
// retained as the baseline for the twin benchmarks and the CI speedup
// gate, and to cross-check that the incremental path is bit-identical.
type rebuildSizingEval struct {
	p      SizingProblem
	widths []float64
}

func (e *rebuildSizingEval) setWidth(i int, w float64) error {
	if err := e.p.checkWidth(i, w); err != nil {
		return err
	}
	e.widths[i] = w
	return nil
}

func (e *rebuildSizingEval) delay() (float64, error) { return delayRebuild(e.p, e.widths) }

// optimizeWidthsRebuild is OptimizeWidths over the from-scratch evaluator —
// the pre-incremental cost model. It exists as the benchmark and CI-gate
// baseline; production callers should use OptimizeWidths.
func optimizeWidthsRebuild(p SizingProblem, relTol float64, maxSweeps int) (SizingResult, error) {
	relTol, maxSweeps = sizingDefaults(relTol, maxSweeps)
	if err := p.validate(); err != nil {
		return SizingResult{}, err
	}
	widths := initialWidths(p)
	ev := &rebuildSizingEval{p: p, widths: append([]float64(nil), widths...)}
	return optimizeWidths(p, relTol, maxSweeps, ev, widths)
}

// rebuildTopoEval is the pre-incremental cost model: structural edits go
// straight to the tree, and a delay query on a changed tree clones it and
// runs the full O(n) summation passes. The clone preserves index order,
// so its sums are bit-identical to the incremental kernel's and the twins
// never diverge.
type rebuildTopoEval struct {
	t     *rlctree.Tree
	gen   uint64
	sums  rlctree.Sums
	valid bool
}

func newRebuildTopoEval(t *rlctree.Tree) (topoEval, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("opt: rebuild evaluator needs a non-empty tree")
	}
	return &rebuildTopoEval{t: t}, nil
}

func (e *rebuildTopoEval) attachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error) {
	return e.t.AttachLeaf(name, parent, r, l, c)
}

func (e *rebuildTopoEval) attachSubtree(parent *rlctree.Section, src *rlctree.Tree) error {
	_, err := e.t.AttachSubtree(parent, src)
	return err
}

func (e *rebuildTopoEval) detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	return e.t.Detach(sec)
}

func (e *rebuildTopoEval) split(sec *rlctree.Section, k int) error {
	_, err := e.t.SplitSection(sec, k)
	return err
}

func (e *rebuildTopoEval) setR(sec *rlctree.Section, v float64) error { return sec.SetR(v) }
func (e *rebuildTopoEval) setC(sec *rlctree.Section, v float64) error { return sec.SetC(v) }

func (e *rebuildTopoEval) delayAt(sink *rlctree.Section) (float64, error) {
	if !e.valid || e.t.Gen() != e.gen {
		e.sums = e.t.Clone().ElmoreSums()
		e.gen = e.t.Gen()
		e.valid = true
	}
	i := sink.Index()
	m, err := core.FromSums(e.sums.SR[i], e.sums.SL[i])
	if err != nil {
		return 0, err
	}
	return m.Delay50(), nil
}

func (e *rebuildTopoEval) tree() *rlctree.Tree { return e.t }

// InsertRepeatersTopoRebuild is the rebuild twin of InsertRepeatersTopo:
// identical candidate enumeration and greedy decisions, with every delay
// query priced at a tree clone plus full summation passes. It exists to
// be benchmarked against — and to pin, in tests, that the incremental
// path returns bit-identical plans.
func InsertRepeatersTopoRebuild(p TopoRepeaterProblem) (TopoPlan, error) {
	return insertRepeatersTopo(p, newRebuildTopoEval)
}

// ExploreTopologiesRebuild is the rebuild twin of ExploreTopologies:
// same moves, same decisions, with each changed topology priced at a
// clone plus full summation passes per cost evaluation.
func ExploreTopologiesRebuild(p TopologyProblem) (TopologyResult, error) {
	return exploreTopologies(p, newRebuildTopoEval)
}

// skewOf rebuilds the tree with the given widths applied to the tunable
// sections and returns (max − min) sink EED delay — the one-shot
// evaluation skewEval is verified against.
func (p SkewProblem) skewOf(widths map[string]float64) (float64, error) {
	t := rlctree.New()
	copies := make([]*rlctree.Section, p.Tree.Len())
	for _, s := range p.Tree.Sections() {
		var parent *rlctree.Section
		if sp := s.Parent(); sp != nil {
			parent = copies[sp.Index()]
		}
		r, l, c := s.R(), s.L(), s.C()
		if w, ok := widths[s.Name()]; ok {
			r /= w
			c *= w
		}
		cp, err := t.AddSection(s.Name(), parent, r, l, c)
		if err != nil {
			return 0, err
		}
		copies[s.Index()] = cp
	}
	analyses, err := core.AnalyzeTree(t)
	if err != nil {
		return 0, err
	}
	minD, maxD := math.Inf(1), 0.0
	for _, a := range analyses {
		if !a.Section.IsLeaf() {
			continue
		}
		if a.Delay50 < minD {
			minD = a.Delay50
		}
		if a.Delay50 > maxD {
			maxD = a.Delay50
		}
	}
	return maxD - minD, nil
}
