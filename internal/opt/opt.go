// Package opt implements the VLSI synthesis applications the paper
// motivates its delay model with (Secs. I and VI): repeater (buffer)
// insertion in inductive lines and continuous wire sizing. Both optimize
// the closed-form equivalent Elmore delay directly — possible because the
// model is one continuous analytic expression across all damping regimes,
// evaluable in O(n) per candidate, exactly the properties that made the
// classical Elmore delay the standard objective for RC synthesis.
package opt

import (
	"fmt"
	"math"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
)

// goldenSection minimizes a unimodal scalar function on [lo, hi] to the
// given relative tolerance and returns the best evaluated argument
// together with its function value, so callers never need to re-evaluate
// the objective after the line search (one saved evaluation per search —
// which, inside a coordinate-descent sweep, is one saved delay evaluation
// per segment per sweep).
func goldenSection(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && (b-a) > tol*(math.Abs(a)+math.Abs(b)+1e-300); i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	if fc <= fd {
		return c, fc
	}
	return d, fd
}

// Repeater characterizes a repeater (buffer) at unit size: output
// resistance ROut, input capacitance CIn and intrinsic (unloaded) delay
// TIntrinsic. Sizing by s scales ROut → ROut/s and CIn → CIn·s, the
// standard first-order CMOS scaling model.
type Repeater struct {
	ROut       float64 // ohms at unit size, > 0
	CIn        float64 // farads at unit size, > 0
	TIntrinsic float64 // seconds, ≥ 0
}

func (r Repeater) validate() error {
	if !(r.ROut > 0) || !(r.CIn > 0) || r.TIntrinsic < 0 ||
		math.IsNaN(r.ROut+r.CIn+r.TIntrinsic) {
		return fmt.Errorf("opt: invalid repeater %+v", r)
	}
	return nil
}

// LineSpec describes a uniform interconnect line by its total resistance,
// inductance and capacitance, discretized into Sections RLC sections for
// delay evaluation (10–20 sections model a distributed line well).
type LineSpec struct {
	R, L, C  float64 // line totals: ohms, henries, farads
	Sections int
}

func (l LineSpec) validate() error {
	if l.Sections < 1 {
		return fmt.Errorf("opt: line needs ≥ 1 section, got %d", l.Sections)
	}
	if !(l.R >= 0) || !(l.L >= 0) || !(l.C > 0) {
		return fmt.Errorf("opt: invalid line totals R=%g L=%g C=%g", l.R, l.L, l.C)
	}
	return nil
}

// segmentTree builds driver → line → load as an RLC tree: a zero-C driver
// section carrying the source resistance, n line sections, and a zero-
// impedance leaf carrying the load capacitance.
func segmentTree(rDriver float64, line LineSpec, cLoad float64) (*rlctree.Tree, *rlctree.Section, error) {
	t := rlctree.New()
	parent, err := t.AddSection("drv", nil, rDriver, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	n := line.Sections
	for i := 1; i <= n; i++ {
		s, err := t.AddSection(fmt.Sprintf("w%d", i), parent,
			line.R/float64(n), line.L/float64(n), line.C/float64(n))
		if err != nil {
			return nil, nil, err
		}
		parent = s
	}
	sink, err := t.AddSection("load", parent, 0, 0, cLoad)
	if err != nil {
		return nil, nil, err
	}
	return t, sink, nil
}

// StageDelay returns the equivalent-Elmore 50% delay of one repeater stage
// driving 1/k of the line into the next repeater's input, at repeater
// size. The driver is modeled by its output resistance (its inductance is
// negligible); TIntrinsic is added per stage.
func StageDelay(line LineSpec, rep Repeater, k int, size float64) (float64, error) {
	if err := line.validate(); err != nil {
		return 0, err
	}
	if err := rep.validate(); err != nil {
		return 0, err
	}
	if k < 1 {
		return 0, fmt.Errorf("opt: k must be ≥ 1, got %d", k)
	}
	if !(size > 0) {
		return 0, fmt.Errorf("opt: size must be > 0, got %g", size)
	}
	seg := LineSpec{
		R:        line.R / float64(k),
		L:        line.L / float64(k),
		C:        line.C / float64(k),
		Sections: line.Sections,
	}
	_, sink, err := segmentTree(rep.ROut/size, seg, rep.CIn*size)
	if err != nil {
		return 0, err
	}
	m, err := core.AtNode(sink)
	if err != nil {
		return 0, err
	}
	return m.Delay50() + rep.TIntrinsic, nil
}

// stageObjective returns the golden-section objective over repeater size
// for a k-stage split of the line, evaluated on a live incremental session
// (two element edits and one O(depth) query per candidate instead of a
// tree rebuild and full resweep).
func stageObjective(line LineSpec, rep Repeater, k int, sizeMin float64) (func(float64) float64, error) {
	ev, err := newStageEval(line, rep, k, sizeMin)
	if err != nil {
		return nil, err
	}
	return func(size float64) float64 {
		d, err := ev.delay(size)
		if err != nil {
			return math.Inf(1)
		}
		return d
	}, nil
}

// RepeaterPlan is the result of repeater-insertion optimization.
type RepeaterPlan struct {
	K          int     // number of repeater stages (1 = no intermediate repeaters)
	Size       float64 // repeater size relative to the unit repeater
	StageDelay float64 // delay of one stage [s]
	TotalDelay float64 // K·StageDelay [s]
}

// InsertRepeaters finds the number and common size of repeaters that
// minimize the total equivalent-Elmore delay of a repeated line, sweeping
// k = 1..maxK with a golden-section search over the repeater size in
// [sizeMin, sizeMax] for each k. This mirrors the uniform repeater
// insertion methodology used for RLC lines in the follow-on work by the
// same authors: inductance reduces the optimal number of repeaters
// relative to the RC-only prediction.
func InsertRepeaters(line LineSpec, rep Repeater, maxK int, sizeMin, sizeMax float64) (RepeaterPlan, error) {
	if err := line.validate(); err != nil {
		return RepeaterPlan{}, err
	}
	if err := rep.validate(); err != nil {
		return RepeaterPlan{}, err
	}
	if maxK < 1 {
		return RepeaterPlan{}, fmt.Errorf("opt: maxK must be ≥ 1, got %d", maxK)
	}
	if !(sizeMin > 0) || !(sizeMax > sizeMin) {
		return RepeaterPlan{}, fmt.Errorf("opt: need 0 < sizeMin < sizeMax, got [%g, %g]", sizeMin, sizeMax)
	}
	best := RepeaterPlan{TotalDelay: math.Inf(1)}
	for k := 1; k <= maxK; k++ {
		stage, err := stageObjective(line, rep, k, sizeMin)
		if err != nil {
			return RepeaterPlan{}, err
		}
		size, sd := goldenSection(stage, sizeMin, sizeMax, 1e-6)
		total := float64(k) * sd
		if total < best.TotalDelay {
			best = RepeaterPlan{K: k, Size: size, StageDelay: sd, TotalDelay: total}
		}
	}
	return best, nil
}

// WireModel maps a segment width to its electrical values:
// R = RUnit/w, C = CAreaUnit·w + CFringe, L = LUnit (on-chip inductance is
// only weakly width-dependent; a constant is the standard first-order
// model).
type WireModel struct {
	RUnit     float64 // ohm·(width unit) per segment
	CAreaUnit float64 // farad/(width unit) per segment
	CFringe   float64 // farad per segment
	LUnit     float64 // henry per segment
}

// Values returns the RLC values of one segment at width w.
func (m WireModel) Values(w float64) rlctree.SectionValues {
	return rlctree.SectionValues{
		R: m.RUnit / w,
		L: m.LUnit,
		C: m.CAreaUnit*w + m.CFringe,
	}
}

// SizingProblem describes continuous wire sizing of a point-to-point line:
// choose each of Segments widths within [WMin, WMax] to minimize the
// equivalent-Elmore delay at the load.
type SizingProblem struct {
	Segments   int
	Model      WireModel
	WMin, WMax float64
	RDriver    float64 // source resistance
	CLoad      float64 // receiver input capacitance
}

func (p SizingProblem) validate() error {
	if p.Segments < 1 {
		return fmt.Errorf("opt: sizing needs ≥ 1 segment, got %d", p.Segments)
	}
	if !(p.WMin > 0) || !(p.WMax >= p.WMin) {
		return fmt.Errorf("opt: need 0 < WMin ≤ WMax, got [%g, %g]", p.WMin, p.WMax)
	}
	if !(p.RDriver >= 0) || !(p.CLoad >= 0) {
		return fmt.Errorf("opt: invalid driver/load: R=%g C=%g", p.RDriver, p.CLoad)
	}
	if !(p.Model.RUnit > 0) || !(p.Model.CAreaUnit > 0) || p.Model.CFringe < 0 || p.Model.LUnit < 0 {
		return fmt.Errorf("opt: invalid wire model %+v", p.Model)
	}
	return nil
}

// SizingResult reports the optimized widths and the resulting delay.
type SizingResult struct {
	Widths []float64
	Delay  float64 // equivalent-Elmore 50% delay at the load [s]
	// Sweeps is the number of full coordinate-descent sweeps executed,
	// counting the final sweep that established convergence. It is ≥ 1
	// whenever the optimizer ran and ≤ the maxSweeps bound.
	Sweeps int
	// Converged is true when the run stopped because a full sweep improved
	// the delay by less than relTol, false when it hit the maxSweeps bound.
	Converged bool
}

// Delay evaluates the sizing objective for an explicit width vector,
// building the tree from scratch — the one-shot form. Optimizer loops use
// an incremental session instead (see OptimizeWidths) and agree with this
// bit for bit.
func (p SizingProblem) Delay(widths []float64) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return delayRebuild(p, widths)
}

// OptimizeWidths minimizes the sizing objective by cyclic coordinate
// descent with a golden-section line search per segment — robust for this
// smooth, quasi-convex objective — starting from uniform mid-range widths.
// It stops when a full sweep improves the delay by less than relTol
// (default 1e-9 when zero) or after maxSweeps (default 50 when zero).
//
// The inner loop runs on an incremental analysis session: each candidate
// width edits one segment's R and C in place and re-derives the load's
// summations in O(depth), instead of rebuilding the tree and re-running
// the O(n) sweeps. Results are bit-identical to the rebuild-per-candidate
// evaluation (optimizeWidthsRebuild, rebuild_test.go) at a fraction of the
// cost.
func OptimizeWidths(p SizingProblem, relTol float64, maxSweeps int) (SizingResult, error) {
	relTol, maxSweeps = sizingDefaults(relTol, maxSweeps)
	if err := p.validate(); err != nil {
		return SizingResult{}, err
	}
	widths := initialWidths(p)
	ev, err := newSizingEval(p, widths)
	if err != nil {
		return SizingResult{}, err
	}
	return optimizeWidths(p, relTol, maxSweeps, ev, widths)
}
