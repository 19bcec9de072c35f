package opt

import (
	"fmt"
	"math"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/rlctree"
)

// This file wires the optimizers onto the incremental analysis engine.
// Every candidate evaluation used to rebuild the RLC tree from scratch
// (section names, map inserts, validation and all) and re-run the full
// O(n) two-pass summations — thousands of times per solve. The paper's
// summations are recursively maintainable, so instead each optimizer holds
// one engine.Session per problem and perturbs only the elements a
// candidate changes: O(depth) per evaluation, with results bit-identical
// to the from-scratch path (the internal/incr contract). The rebuild
// twins of the old behavior live in rebuild_test.go as the test and
// benchmark baselines.

// widthDelayEval evaluates the sizing objective for one segment-width
// change at a time; the interface lets the coordinate-descent core run
// unchanged over the incremental session and the rebuild baseline.
type widthDelayEval interface {
	// setWidth applies width w to segment i (no-op if unchanged).
	setWidth(i int, w float64) error
	// delay returns the objective at the currently applied widths.
	delay() (float64, error)
}

// sizingEval is the incremental evaluator: a live session over the
// driver→segments→load tree, editing only changed segments.
type sizingEval struct {
	p      SizingProblem
	sess   *engine.Session
	segs   []*rlctree.Section
	sink   *rlctree.Section
	widths []float64
}

// sizingTree builds the driver → segments → load tree the sizing
// objective is evaluated on: a zero-C driver section carrying RDriver,
// one section per segment at its width's model values, and a
// zero-impedance leaf carrying CLoad. Both the one-shot and the
// incremental evaluation run on trees built here, so their element
// values — and therefore sums and delays — are bit-identical.
func sizingTree(p SizingProblem, widths []float64) (segs []*rlctree.Section, sink *rlctree.Section, err error) {
	if len(widths) != p.Segments {
		return nil, nil, fmt.Errorf("opt: got %d widths for %d segments", len(widths), p.Segments)
	}
	t := rlctree.New()
	parent, err := t.AddSection("drv", nil, p.RDriver, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	segs = make([]*rlctree.Section, p.Segments)
	for i, w := range widths {
		if err := p.checkWidth(i, w); err != nil {
			return nil, nil, err
		}
		v := p.Model.Values(w)
		s, err := t.AddSection(fmt.Sprintf("w%d", i+1), parent, v.R, v.L, v.C)
		if err != nil {
			return nil, nil, err
		}
		segs[i] = s
		parent = s
	}
	sink, err = t.AddSection("load", parent, 0, 0, p.CLoad)
	if err != nil {
		return nil, nil, err
	}
	return segs, sink, nil
}

// newSizingEval builds the sizing tree and opens an incremental session
// over it.
func newSizingEval(p SizingProblem, widths []float64) (*sizingEval, error) {
	segs, sink, err := sizingTree(p, widths)
	if err != nil {
		return nil, err
	}
	sess, err := engine.NewSession(sink.Tree())
	if err != nil {
		return nil, err
	}
	return &sizingEval{
		p:      p,
		sess:   sess,
		segs:   segs,
		sink:   sink,
		widths: append([]float64(nil), widths...),
	}, nil
}

func (p SizingProblem) checkWidth(i int, w float64) error {
	if w < p.WMin || w > p.WMax || math.IsNaN(w) {
		return fmt.Errorf("opt: width %d = %g outside [%g, %g]", i, w, p.WMin, p.WMax)
	}
	return nil
}

func (e *sizingEval) setWidth(i int, w float64) error {
	if err := e.p.checkWidth(i, w); err != nil {
		return err
	}
	if w == e.widths[i] {
		return nil
	}
	v := e.p.Model.Values(w)
	// C before R: the capacitance edit marks the sums stale, so the
	// following resistance edit skips its eager subtree refresh and the
	// next query pays a single O(depth) path walk for both.
	if err := e.sess.SetC(e.segs[i], v.C); err != nil {
		return err
	}
	if err := e.sess.SetR(e.segs[i], v.R); err != nil {
		return err
	}
	e.widths[i] = w
	return nil
}

func (e *sizingEval) delay() (float64, error) { return e.sess.DelayAt(e.sink) }

// setWidths applies a whole width vector (only changed segments edit).
func (e *sizingEval) setWidths(widths []float64) error {
	if len(widths) != e.p.Segments {
		return fmt.Errorf("opt: got %d widths for %d segments", len(widths), e.p.Segments)
	}
	for i, w := range widths {
		if err := e.setWidth(i, w); err != nil {
			return err
		}
	}
	return nil
}

// delayRebuild evaluates the sizing objective from scratch: fresh tree,
// full two-pass sums, closed-form kernel at the load. This is what every
// candidate evaluation cost before the incremental engine.
func delayRebuild(p SizingProblem, widths []float64) (float64, error) {
	_, sink, err := sizingTree(p, widths)
	if err != nil {
		return 0, err
	}
	m, err := core.AtNode(sink)
	if err != nil {
		return 0, err
	}
	return m.Delay50(), nil
}

// stageEval evaluates one repeater stage's delay across candidate sizes on
// a live session: the line sections never change with size, only the
// driver resistance (ROut/size) and the receiver load (CIn·size) do, so a
// size candidate costs two edits and one O(depth) query.
type stageEval struct {
	rep  Repeater
	sess *engine.Session
	drv  *rlctree.Section
	load *rlctree.Section
	size float64
}

// newStageEval builds the k-segment stage tree at the given initial size.
func newStageEval(line LineSpec, rep Repeater, k int, size float64) (*stageEval, error) {
	seg := LineSpec{
		R:        line.R / float64(k),
		L:        line.L / float64(k),
		C:        line.C / float64(k),
		Sections: line.Sections,
	}
	t, sink, err := segmentTree(rep.ROut/size, seg, rep.CIn*size)
	if err != nil {
		return nil, err
	}
	sess, err := engine.NewSession(t)
	if err != nil {
		return nil, err
	}
	return &stageEval{rep: rep, sess: sess, drv: t.Section("drv"), load: sink, size: size}, nil
}

// delay returns the stage delay at the given repeater size (intrinsic
// delay included), editing the driver and load in place.
func (e *stageEval) delay(size float64) (float64, error) {
	if !(size > 0) {
		return 0, fmt.Errorf("opt: size must be > 0, got %g", size)
	}
	if size != e.size {
		if err := e.sess.SetC(e.load, e.rep.CIn*size); err != nil {
			return 0, err
		}
		if err := e.sess.SetR(e.drv, e.rep.ROut/size); err != nil {
			return 0, err
		}
		e.size = size
	}
	d, err := e.sess.DelayAt(e.load)
	if err != nil {
		return 0, err
	}
	return d + e.rep.TIntrinsic, nil
}

// optimizeWidths is the coordinate-descent core shared by OptimizeWidths
// and its rebuild twin: cyclic golden-section line searches per segment
// until a full sweep improves the delay by less than relTol or maxSweeps
// is reached. The evaluator supplies the objective; since both evaluators
// are bit-identical, both twins take identical descent paths and return
// identical results.
func optimizeWidths(p SizingProblem, relTol float64, maxSweeps int, ev widthDelayEval, widths []float64) (SizingResult, error) {
	cur, err := ev.delay()
	if err != nil {
		return SizingResult{}, err
	}
	sweeps := 0
	converged := false
	for sweeps < maxSweeps && !converged {
		sweeps++
		prev := cur
		for i := range widths {
			obj := func(w float64) float64 {
				if err := ev.setWidth(i, w); err != nil {
					return math.Inf(1)
				}
				d, err := ev.delay()
				if err != nil {
					return math.Inf(1)
				}
				return d
			}
			w, fw := goldenSection(obj, p.WMin, p.WMax, 1e-7)
			if fw <= cur {
				// The line search already evaluated fw at w: accept
				// without re-evaluating the objective.
				if err := ev.setWidth(i, w); err != nil {
					return SizingResult{}, err
				}
				widths[i], cur = w, fw
			} else if err := ev.setWidth(i, widths[i]); err != nil {
				return SizingResult{}, err
			}
		}
		converged = prev-cur <= relTol*prev
	}
	return SizingResult{Widths: widths, Delay: cur, Sweeps: sweeps, Converged: converged}, nil
}

func sizingDefaults(relTol float64, maxSweeps int) (float64, int) {
	if relTol <= 0 {
		relTol = 1e-9
	}
	if maxSweeps <= 0 {
		maxSweeps = 50
	}
	return relTol, maxSweeps
}

func initialWidths(p SizingProblem) []float64 {
	widths := make([]float64, p.Segments)
	for i := range widths {
		widths[i] = math.Sqrt(p.WMin * p.WMax)
	}
	return widths
}
