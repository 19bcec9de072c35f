package opt

import (
	"fmt"
	"math"
	"sort"

	"eedtree/internal/engine"
	"eedtree/internal/rlctree"
)

// Skew balancing: tune the widths of designated branches of a clock tree
// so that all sinks see (nearly) the same equivalent Elmore delay — the
// clock-distribution application the paper cites as a primary consumer of
// fast delay models ([26]: skew under the Elmore model correlates highly
// with SPICE skew; here the metric is the RLC-aware EED instead).

// SkewProblem describes a skew-balancing run. Tunable sections behave as
// wires whose width w scales R → R/w and C → C·w (L is width-insensitive),
// the same first-order model as WireModel.
type SkewProblem struct {
	Tree       *rlctree.Tree
	Tunable    []string // names of width-adjustable sections
	WMin, WMax float64  // width bounds, 0 < WMin ≤ 1 ≤ WMax (w = 1 is the drawn width)
}

func (p SkewProblem) validate() error {
	if p.Tree == nil || p.Tree.Len() == 0 {
		return fmt.Errorf("opt: skew problem needs a tree")
	}
	if len(p.Tunable) == 0 {
		return fmt.Errorf("opt: skew problem needs tunable sections")
	}
	if !(p.WMin > 0) || p.WMin > 1 || p.WMax < 1 {
		return fmt.Errorf("opt: need 0 < WMin ≤ 1 ≤ WMax, got [%g, %g]", p.WMin, p.WMax)
	}
	for _, name := range p.Tunable {
		if p.Tree.Section(name) == nil {
			return fmt.Errorf("opt: tunable section %q not in the tree", name)
		}
	}
	return nil
}

// SkewResult reports the balancing outcome.
type SkewResult struct {
	Widths     map[string]float64 // per tunable section
	SkewBefore float64            // max−min sink delay at all widths = 1 [s]
	SkewAfter  float64            // after optimization [s]
	// Sweeps counts full coordinate-descent sweeps executed, including the
	// final sweep that established convergence; Converged reports whether
	// the run stopped on the relTol criterion rather than the sweep bound.
	Sweeps    int
	Converged bool
}

// skewEval evaluates the skew objective on a live incremental session
// over a private copy of the problem tree: a width candidate edits one
// tunable section's R and C in place (two session edits) and each sink
// delay re-derives in O(depth), instead of rebuilding and re-sweeping the
// whole tree per candidate. Values are computed with the same arithmetic
// as the rebuild twin skewOf in rebuild_test.go (R/w, C·w from the drawn
// values), so the two evaluations agree bit for bit.
type skewEval struct {
	sess   *engine.Session
	leaves []*rlctree.Section
	tun    map[string]*rlctree.Section      // tunable name → copy-tree section
	base   map[string]rlctree.SectionValues // drawn (width = 1) values
	widths map[string]float64               // currently applied widths
}

func newSkewEval(p SkewProblem) (*skewEval, error) {
	t := rlctree.New()
	copies := make([]*rlctree.Section, p.Tree.Len())
	for _, s := range p.Tree.Sections() {
		var parent *rlctree.Section
		if sp := s.Parent(); sp != nil {
			parent = copies[sp.Index()]
		}
		cp, err := t.AddSection(s.Name(), parent, s.R(), s.L(), s.C())
		if err != nil {
			return nil, err
		}
		copies[s.Index()] = cp
	}
	sess, err := engine.NewSession(t)
	if err != nil {
		return nil, err
	}
	ev := &skewEval{
		sess:   sess,
		tun:    make(map[string]*rlctree.Section, len(p.Tunable)),
		base:   make(map[string]rlctree.SectionValues, len(p.Tunable)),
		widths: make(map[string]float64, len(p.Tunable)),
	}
	for _, name := range p.Tunable {
		s := t.Section(name)
		ev.tun[name] = s
		ev.base[name] = rlctree.SectionValues{R: s.R(), L: s.L(), C: s.C()}
		ev.widths[name] = 1
	}
	for _, s := range t.Sections() {
		if s.IsLeaf() {
			ev.leaves = append(ev.leaves, s)
		}
	}
	return ev, nil
}

// setWidth applies width w to the named tunable section (no-op when
// unchanged). C before R so both edits fold into one O(depth) path walk
// at the next query.
func (e *skewEval) setWidth(name string, w float64) error {
	if w == e.widths[name] {
		return nil
	}
	b, sec := e.base[name], e.tun[name]
	if err := e.sess.SetC(sec, b.C*w); err != nil {
		return err
	}
	if err := e.sess.SetR(sec, b.R/w); err != nil {
		return err
	}
	e.widths[name] = w
	return nil
}

// skew returns (max − min) sink EED delay at the applied widths.
func (e *skewEval) skew() (float64, error) {
	minD, maxD := math.Inf(1), 0.0
	for _, lf := range e.leaves {
		d, err := e.sess.DelayAt(lf)
		if err != nil {
			return 0, err
		}
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	return maxD - minD, nil
}

// BalanceSkew minimizes the sink-to-sink delay spread by cyclic coordinate
// descent over the tunable widths with a golden-section line search each —
// viable only because the objective is built from continuous closed forms
// (paper Sec. VI). It stops when a sweep improves the skew by less than
// relTol (default 1e-6) or after maxSweeps (default 30).
func BalanceSkew(p SkewProblem, relTol float64, maxSweeps int) (SkewResult, error) {
	if err := p.validate(); err != nil {
		return SkewResult{}, err
	}
	if relTol <= 0 {
		relTol = 1e-6
	}
	if maxSweeps <= 0 {
		maxSweeps = 30
	}
	ev, err := newSkewEval(p)
	if err != nil {
		return SkewResult{}, err
	}
	widths := make(map[string]float64, len(p.Tunable))
	for _, name := range p.Tunable {
		widths[name] = 1
	}
	before, err := ev.skew()
	if err != nil {
		return SkewResult{}, err
	}
	cur := before
	// Deterministic sweep order.
	order := append([]string(nil), p.Tunable...)
	sort.Strings(order)
	sweeps := 0
	converged := false
	for sweeps < maxSweeps && !converged {
		sweeps++
		prev := cur
		for _, name := range order {
			obj := func(w float64) float64 {
				if err := ev.setWidth(name, w); err != nil {
					return math.Inf(1)
				}
				s, err := ev.skew()
				if err != nil {
					return math.Inf(1)
				}
				return s
			}
			w, s := goldenSection(obj, p.WMin, p.WMax, 1e-7)
			if s <= cur {
				// The line search already evaluated s at w: accept without
				// another whole-sink-set evaluation.
				if err := ev.setWidth(name, w); err != nil {
					return SkewResult{}, err
				}
				widths[name], cur = w, s
			} else if err := ev.setWidth(name, widths[name]); err != nil {
				return SkewResult{}, err
			}
		}
		converged = prev-cur <= relTol*math.Max(prev, 1e-300)
	}
	return SkewResult{Widths: widths, SkewBefore: before, SkewAfter: cur, Sweeps: sweeps, Converged: converged}, nil
}
