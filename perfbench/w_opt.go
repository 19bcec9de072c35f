package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"eedtree/internal/engine"
	"eedtree/internal/incr"
	"eedtree/internal/opt"
	"eedtree/internal/rlctree"
	"eedtree/perfbench/ref"
)

// optimize is the optimizer inner loop: a seeded round-robin of the four
// session-based optimizers on 48–128-section problems, in one goroutine.
// The op is one solve; a round solves each of the optProblems problems
// of every family once, so every round does the same work. Sizing and
// skew solves run to the shipped defaults (relative tolerance 1e-9, at
// most 50 sweeps), as the repository's examples call them.
type optimize struct {
	widths []opt.SizingProblem
	skews  []skewCase
	reps   []opt.TopoRepeaterProblem
	topos  []opt.TopologyProblem

	// Set only while tracing.
	tr     *tracer
	op     int64
	counts [4]int // sweeps or evals per family, summed over traced solves
	solves [4]int
}

const optProblems = 6

var optFamilies = [4]string{"opt.widths", "opt.skew", "opt.repeaters_topo", "opt.topologies"}

// skewCase is a skew problem with the reference copy of its tree.
type skewCase struct {
	p      opt.SkewProblem
	t      *ref.Tree
	tunIdx []int
	leaves []bool
}

func (o *optimize) setup(seed int64, _ string) error {
	rng := rand.New(rand.NewSource(seed))
	jit := func() float64 { return 0.8 + 0.4*rng.Float64() }
	sizes := func() []int { return stratified(rng, optProblems, 48, 128) }
	for _, n := range sizes() {
		j := jit()
		o.widths = append(o.widths, opt.SizingProblem{
			Segments: n,
			Model:    opt.WireModel{RUnit: 40 * j, CAreaUnit: 30e-15 * j, CFringe: 10e-15 * j, LUnit: 0.6e-9 * j},
			WMin:     0.5, WMax: 4, RDriver: 100 * jit(), CLoad: 50e-15 * jit(),
		})
	}
	for _, n := range sizes() {
		t := randomValues(rng, randomParents(rng, n), nil)
		tree := rlctree.New()
		secs := make([]*rlctree.Section, n)
		var internal []int
		leaves := t.Leaves()
		for i, p := range t.Parent {
			var parent *rlctree.Section
			if p >= 0 {
				parent = secs[p]
			}
			s, err := tree.AddSection("k"+strconv.Itoa(i), parent, t.R[i], t.L[i], t.C[i])
			if err != nil {
				return err
			}
			secs[i] = s
			if !leaves[i] {
				internal = append(internal, i)
			}
		}
		rng.Shuffle(len(internal), func(a, b int) { internal[a], internal[b] = internal[b], internal[a] })
		tun := internal[:min(12, len(internal))]
		sc := skewCase{t: t, tunIdx: tun, leaves: leaves,
			p: opt.SkewProblem{Tree: tree, WMin: 0.5, WMax: 4}}
		for _, i := range tun {
			sc.p.Tunable = append(sc.p.Tunable, "k"+strconv.Itoa(i))
		}
		o.skews = append(o.skews, sc)
	}
	for _, n := range sizes() {
		j := jit()
		o.reps = append(o.reps, opt.TopoRepeaterProblem{
			Line:    opt.LineSpec{R: 600 * j, L: 8e-9 * j, C: 4e-12 * j, Sections: n},
			Rep:     opt.Repeater{ROut: 500 * jit(), CIn: 12e-15 * jit(), TIntrinsic: 2e-12},
			RSource: 120, CLoad: 60e-15, MaxK: 2, SizeMin: 0.5, SizeMax: 100,
		})
	}
	for _, n := range sizes() {
		j := jit()
		p := opt.TopologyProblem{
			Trunk:       opt.LineSpec{R: 400 * j, L: 6e-9 * j, C: 3e-12 * j, Sections: n},
			RSource:     150,
			StubRPerLen: 150, StubLPerLen: 1e-9, StubCPerLen: 0.05e-12,
			Lambda:    2e-12,
			MaxPasses: 2,
		}
		for k := 0; k < 9; k++ {
			p.Sinks = append(p.Sinks, opt.SinkSpec{Name: "s" + strconv.Itoa(k), Pos: rng.Float64(), CLoad: 50e-15 * jit()})
		}
		p.Sinks = append(p.Sinks, opt.SinkSpec{Name: "crit", Pos: 1, CLoad: 200e-15})
		o.topos = append(o.topos, p)
	}
	// Warm-up: every problem solved and checked once.
	var lat []time.Duration
	return o.round(&lat)
}

func (o *optimize) teardown() {}

func (o *optimize) round(lat *[]time.Duration) error {
	for i := 0; i < optProblems; i++ {
		if err := o.solveAll(i, lat); err != nil {
			return err
		}
	}
	return nil
}

// solveAll solves problem i of every family.
func (o *optimize) solveAll(i int, lat *[]time.Duration) error {
	for f := range optFamilies {
		o.op++
		id := o.tr.begin(optFamilies[f], 0, o.op)
		t0 := time.Now()
		var err error
		var check func() error
		var count int
		switch f {
		case 0:
			var res opt.SizingResult
			res, err = opt.OptimizeWidths(o.widths[i], 0, 0)
			check, count = func() error { return checkWidths(o.widths[i], res) }, res.Sweeps
		case 1:
			var res opt.SkewResult
			res, err = opt.BalanceSkew(o.skews[i].p, 0, 0)
			check, count = func() error { return checkSkew(&o.skews[i], res) }, res.Sweeps
		case 2:
			var res opt.TopoPlan
			res, err = opt.InsertRepeatersTopo(o.reps[i])
			check, count = func() error { return checkRepeaters(o.reps[i], res) }, res.Evals
		case 3:
			var res opt.TopologyResult
			res, err = opt.ExploreTopologies(o.topos[i])
			check, count = func() error { return checkTopology(o.topos[i], res) }, res.Evals
		}
		*lat = append(*lat, time.Since(t0))
		o.tr.end(id)
		o.counts[f] += count
		o.solves[f]++
		if err == nil {
			err = check()
		}
		if err != nil {
			return opErr("solve %d (%s, problem %d): %v", o.op, optFamilies[f], i, err)
		}
	}
	return nil
}

// delayAtLast is the reference delay at the last section added.
func delayAtLast(t *ref.Tree) float64 {
	d := ref.Delays(t)
	return d[len(d)-1]
}

// lineTree is driver → n equal sections of a line's totals, as a
// reference tree; it returns the tree and its last section.
func lineTree(rDrv float64, line opt.LineSpec, from, to int) (*ref.Tree, int32) {
	t := &ref.Tree{}
	prev := t.Add(-1, rDrv, 0, 0)
	n := float64(line.Sections)
	for i := from; i < to; i++ {
		prev = t.Add(prev, line.R/n, line.L/n, line.C/n)
	}
	return t, prev
}

// sizingDelay is the sizing objective for a width vector: driver →
// segments of R = RUnit/w, L = LUnit, C = CAreaUnit·w + CFringe → load.
func sizingDelay(p opt.SizingProblem, widths []float64) float64 {
	t := &ref.Tree{}
	prev := t.Add(-1, p.RDriver, 0, 0)
	for _, w := range widths {
		prev = t.Add(prev, p.Model.RUnit/w, p.Model.LUnit, p.Model.CAreaUnit*w+p.Model.CFringe)
	}
	t.Add(prev, 0, 0, p.CLoad)
	return delayAtLast(t)
}

// checkWidths: the reported delay is the reference objective of the
// returned widths, which lie in bounds and do no worse than the uniform
// start at √(WMin·WMax).
func checkWidths(p opt.SizingProblem, res opt.SizingResult) error {
	if len(res.Widths) != p.Segments {
		return fmt.Errorf("%d widths for %d segments", len(res.Widths), p.Segments)
	}
	start := make([]float64, p.Segments)
	for i, w := range res.Widths {
		if !(w >= p.WMin && w <= p.WMax) {
			return fmt.Errorf("width %d = %g outside [%g, %g]", i, w, p.WMin, p.WMax)
		}
		start[i] = math.Sqrt(p.WMin * p.WMax)
	}
	got, before := sizingDelay(p, res.Widths), sizingDelay(p, start)
	if !ref.Close(res.Delay, got, 1e-9) {
		return fmt.Errorf("reported delay %g s, reference for the returned widths %g s", res.Delay, got)
	}
	if got > before*(1+1e-12) {
		return fmt.Errorf("delay %g s is worse than the start's %g s", got, before)
	}
	return nil
}

// skewOf is max − min leaf delay with tunable sections at widths w
// (R → R/w, C → C·w), and the largest leaf delay.
func skewOf(sc *skewCase, widths map[string]float64) (skew, maxD float64) {
	t := sc.t.Clone()
	for k, i := range sc.tunIdx {
		w := 1.0
		if widths != nil {
			w = widths[sc.p.Tunable[k]]
		}
		t.R[i], t.C[i] = t.R[i]/w, t.C[i]*w
	}
	minD := math.Inf(1)
	for i, d := range ref.Delays(t) {
		if sc.leaves[i] {
			minD, maxD = min(minD, d), max(maxD, d)
		}
	}
	return maxD - minD, maxD
}

// checkSkew: both reported skews match the reference at their widths,
// and the result is no worse than the start (all widths 1).
func checkSkew(sc *skewCase, res opt.SkewResult) error {
	before, scale := skewOf(sc, nil)
	after, _ := skewOf(sc, res.Widths)
	tol := 1e-9 * scale
	switch {
	case len(res.Widths) != len(sc.p.Tunable):
		return fmt.Errorf("%d widths for %d tunable sections", len(res.Widths), len(sc.p.Tunable))
	case math.Abs(res.SkewBefore-before) > tol:
		return fmt.Errorf("SkewBefore %g s, reference %g s", res.SkewBefore, before)
	case math.Abs(res.SkewAfter-after) > tol:
		return fmt.Errorf("SkewAfter %g s, reference for the returned widths %g s", res.SkewAfter, after)
	case res.SkewAfter > res.SkewBefore+tol:
		return fmt.Errorf("SkewAfter %g s exceeds SkewBefore %g s", res.SkewAfter, res.SkewBefore)
	}
	return nil
}

// checkRepeaters rebuilds every stage of the plan: source or repeater
// output resistance → the stage's wire sections → the next repeater's
// input capacitance or the load. Each stage delay must match, TotalDelay
// must be Σ StageDelays + K·TIntrinsic, and no worse than the bare line.
func checkRepeaters(p opt.TopoRepeaterProblem, plan opt.TopoPlan) error {
	type cut struct {
		pos  int
		size float64
	}
	cuts := make([]cut, 0, len(plan.Placements))
	for _, pl := range plan.Placements {
		pos := 0
		if pl.After != "drv" {
			v, err := strconv.Atoi(strings.TrimPrefix(pl.After, "w"))
			if err != nil || !strings.HasPrefix(pl.After, "w") {
				return fmt.Errorf("placement after unknown section %q", pl.After)
			}
			pos = v
		}
		cuts = append(cuts, cut{pos, pl.Size})
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].pos < cuts[b].pos })
	if plan.K != len(cuts) || len(plan.StageDelays) != len(cuts)+1 {
		return fmt.Errorf("K = %d with %d placements and %d stage delays", plan.K, len(cuts), len(plan.StageDelays))
	}
	sum := 0.0
	for j := 0; j <= len(cuts); j++ {
		from, to, rDrv, cEnd := 0, p.Line.Sections, p.RSource, p.CLoad
		if j > 0 {
			from, rDrv = cuts[j-1].pos, p.Rep.ROut/cuts[j-1].size
		}
		if j < len(cuts) {
			to, cEnd = cuts[j].pos, p.Rep.CIn*cuts[j].size
		}
		t, last := lineTree(rDrv, p.Line, from, to)
		t.Add(last, 0, 0, cEnd)
		if d := delayAtLast(t); !ref.Close(plan.StageDelays[j], d, 1e-9) {
			return fmt.Errorf("stage %d delay %g s, reference %g s", j, plan.StageDelays[j], d)
		}
		sum += plan.StageDelays[j]
	}
	total := sum + float64(plan.K)*p.Rep.TIntrinsic
	if !ref.Close(plan.TotalDelay, total, 1e-9) {
		return fmt.Errorf("TotalDelay %g s, Σ StageDelays + K·TIntrinsic = %g s", plan.TotalDelay, total)
	}
	bare, last := lineTree(p.RSource, p.Line, 0, p.Line.Sections)
	bare.Add(last, 0, 0, p.CLoad)
	if d := delayAtLast(bare); total > d*(1+1e-12) {
		return fmt.Errorf("TotalDelay %g s is worse than the bare line's %g s", total, d)
	}
	return nil
}

// topologyCost rebuilds the trunk with every sink's stub at its tap and
// returns MaxDelay, total stub length and the cost.
func topologyCost(p opt.TopologyProblem, taps []int) (maxD, stub, cost float64) {
	n := p.Trunk.Sections
	t, _ := lineTree(p.RSource, p.Trunk, 0, n)
	var sinks []int32
	for i, s := range p.Sinks {
		l := math.Abs(s.Pos - float64(taps[i]+1)/float64(n))
		stub += l
		sinks = append(sinks, t.Add(int32(taps[i]+1), p.StubRPerLen*l, p.StubLPerLen*l, p.StubCPerLen*l+s.CLoad))
	}
	d := ref.Delays(t)
	maxD = math.Inf(-1)
	for _, k := range sinks {
		maxD = max(maxD, d[k])
	}
	return maxD, stub, maxD + p.Lambda*stub
}

// checkTopology: MaxDelay and StubLength match the reference for the
// returned taps, Cost = MaxDelay + λ·StubLength, and the cost is no
// worse than the nearest-tap start.
func checkTopology(p opt.TopologyProblem, res opt.TopologyResult) error {
	n := p.Trunk.Sections
	if len(res.Taps) != len(p.Sinks) {
		return fmt.Errorf("%d taps for %d sinks", len(res.Taps), len(p.Sinks))
	}
	start := make([]int, len(p.Sinks))
	for i, s := range p.Sinks {
		if res.Taps[i] < 0 || res.Taps[i] >= n {
			return fmt.Errorf("sink %s on tap %d of %d", s.Name, res.Taps[i], n)
		}
		best := math.Inf(1)
		for tap := 0; tap < n; tap++ {
			if d := math.Abs(s.Pos - float64(tap+1)/float64(n)); d < best {
				start[i], best = tap, d
			}
		}
	}
	maxD, stub, cost := topologyCost(p, res.Taps)
	_, _, startCost := topologyCost(p, start)
	switch {
	case !ref.Close(res.MaxDelay, maxD, 1e-9):
		return fmt.Errorf("MaxDelay %g s, reference for the returned taps %g s", res.MaxDelay, maxD)
	case !ref.Close(res.StubLength, stub, 1e-9):
		return fmt.Errorf("StubLength %g, reference %g", res.StubLength, stub)
	case !ref.Close(res.Cost, res.MaxDelay+p.Lambda*res.StubLength, 1e-12):
		return fmt.Errorf("Cost %g is not MaxDelay + λ·StubLength = %g", res.Cost, res.MaxDelay+p.Lambda*res.StubLength)
	case cost > startCost*(1+1e-12):
		return fmt.Errorf("cost %g is worse than the nearest-tap start's %g", cost, startCost)
	}
	return nil
}

// sizingRLC builds the program's own tree for a sizing problem at the
// start widths: driver, segments w1…wn, load.
func sizingRLC(p opt.SizingProblem) (*rlctree.Tree, []*rlctree.Section, *rlctree.Section) {
	t := rlctree.New()
	prev := t.MustAddSection("drv", nil, p.RDriver, 0, 0)
	w := math.Sqrt(p.WMin * p.WMax)
	segs := make([]*rlctree.Section, p.Segments)
	for i := range segs {
		prev = t.MustAddSection("w"+strconv.Itoa(i+1), prev, p.Model.RUnit/w, p.Model.LUnit, p.Model.CAreaUnit*w+p.Model.CFringe)
		segs[i] = prev
	}
	return t, segs, t.MustAddSection("load", prev, 0, 0, p.CLoad)
}

func (o *optimize) traced(tc *traceRun) error {
	o.tr = &tc.tr
	o.counts, o.solves = [4]int{}, [4]int{}
	var lat []time.Duration
	rate, err := timedRounds(tc.cfg.seconds, func() (int, error) {
		lat = lat[:0]
		err := o.round(&lat)
		return len(lat), err
	})
	o.tr = nil
	if err != nil {
		return err
	}
	tr := &tc.tr
	rng := rand.New(rand.NewSource(tc.cfg.seed))

	// Replays of the calls a solve makes, on the workload's own problems.
	const cands = 300
	for _, p := range o.widths {
		t, segs, sink := sizingRLC(p)
		sess, err := engine.NewSession(t)
		if err != nil {
			return err
		}
		for k := 0; k < cands; k++ {
			seg := segs[rng.Intn(len(segs))]
			w := p.WMin + rng.Float64()*(p.WMax-p.WMin)
			id := tr.begin("engine.value_edit_query", 0, 0)
			err1 := sess.SetC(seg, p.Model.CAreaUnit*w+p.Model.CFringe)
			err2 := sess.SetR(seg, p.Model.RUnit/w)
			_, err3 := sess.DelayAt(sink)
			tr.end(id)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("value edit replay: %v %v %v", err1, err2, err3)
			}
		}
		st, err := incr.New(t)
		if err != nil {
			return err
		}
		for k := 0; k < cands; k++ {
			if err := st.SetR(1+rng.Intn(p.Segments), p.Model.RUnit/(p.WMin+rng.Float64()*(p.WMax-p.WMin))); err != nil {
				return err
			}
			id := tr.begin("incr.sums_at", 0, 0)
			_, _, _, err := st.SumsAt(sink.Index())
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	for _, p := range o.topos {
		line := p.Trunk
		t := rlctree.New()
		prev := t.MustAddSection("drv", nil, p.RSource, 0, 0)
		var taps []*rlctree.Section
		for i := 0; i < line.Sections; i++ {
			n := float64(line.Sections)
			prev = t.MustAddSection("t"+strconv.Itoa(i+1), prev, line.R/n, line.L/n, line.C/n)
			taps = append(taps, prev)
		}
		sess, err := engine.NewSession(t)
		if err != nil {
			return err
		}
		for k := 0; k < cands; k++ {
			l := rng.Float64() * 0.2
			id := tr.begin("engine.structural_edit_query", 0, 0)
			leaf, err1 := sess.AttachLeaf("probe", taps[rng.Intn(len(taps))], p.StubRPerLen*l, p.StubLPerLen*l, p.StubCPerLen*l+50e-15)
			var err2, err3 error
			if err1 == nil {
				_, err2 = sess.DelayAt(leaf)
				_, err3 = sess.Detach(leaf)
			}
			tr.end(id)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("structural edit replay: %v %v %v", err1, err2, err3)
			}
		}
	}
	// Journaled value edits on a plain tree: time and bytes per SetR.
	const edits = 20000
	_, segs, _ := sizingRLC(o.widths[0])
	vals := make([]float64, edits)
	for k := range vals {
		vals[k] = 10 + rng.Float64()*100
	}
	var editErr error
	setAll := func() {
		for k, v := range vals {
			if err := segs[k%len(segs)].SetR(v); err != nil && editErr == nil {
				editErr = err
			}
		}
	}
	var am allocMeter
	bytes, _ := am.measure(setAll)
	id := tr.beginN("rlctree.edit", 0, 0, edits)
	setAll()
	tr.end(id)
	if editErr != nil {
		return fmt.Errorf("journaled edit replay: %w", editErr)
	}

	st := tr.selfTimes()
	fmt.Println("optimize ledger (solve spans from the traced loop; engine, incr and rlctree spans from replays):")
	var solveUS float64
	var solves int64
	for _, name := range optFamilies {
		solves += st[name].calls
	}
	for f, name := range optFamilies {
		mean := tc.ledger(st, name, solves, "")
		tc.layers[name+"_us"] = mean
		solveUS += float64(st[name].selfNS) / 1e3
		unit := "_evals"
		if f < 2 {
			unit = "_sweeps"
		}
		tc.layers[name+unit] = float64(o.counts[f]) / float64(max(o.solves[f], 1))
		fmt.Printf("    %s%s = %.3f per solve\n", name, unit, tc.layers[name+unit])
	}
	tc.layers["engine.value_edit_query_us"] = tc.ledger(st, "engine.value_edit_query", st["engine.value_edit_query"].calls, "SetC + SetR + DelayAt")
	tc.layers["engine.structural_edit_query_us"] = tc.ledger(st, "engine.structural_edit_query", st["engine.structural_edit_query"].calls, "AttachLeaf + DelayAt + Detach")
	tc.layers["incr.sums_at_ns"] = tc.ledger(st, "incr.sums_at", st["incr.sums_at"].calls, "after one SetR") * 1e3
	tc.layers["rlctree.edit_ns"] = st["rlctree.edit"].meanUS() * 1e3
	tc.layers["rlctree.edit_bytes"] = float64(bytes) / edits
	fmt.Printf("  rlctree.edit: %.1f ns and %.1f B per journaled SetR over %d edits\n",
		tc.layers["rlctree.edit_ns"], tc.layers["rlctree.edit_bytes"], edits)
	tc.reconcile("wall", tc.untraced.perOpUS(), solveUS/float64(solves), "mean solve self time over the four families")
	tc.overhead("solves", rate, float64(tc.untraced.ops)/tc.untraced.wall.Seconds())
	return nil
}
