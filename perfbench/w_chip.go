package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
	"eedtree/perfbench/ref"
)

// chipStream is the full-chip path: a synthetic SPEF design, written to
// a file during set-up, streamed through engine.RunPipeline with one
// analyze worker beside the parse stage. The op is one net; a round is
// one pass over the file.
type chipStream struct {
	path string
	lim  guard.Limits
	want []netWant // reference summary per net
}

// chipNets is the design size: ~150k sections, a ~1 s pass.
const chipNets = 3000

type netWant struct {
	sections, sinks    int
	maxDelay, avgDelay float64
}

func (c *chipStream) setup(seed int64, dir string) error {
	c.path = filepath.Join(dir, "design.spef")
	f, err := os.Create(c.path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := writeDesign(bw, rand.New(rand.NewSource(seed)), chipNets, c); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Limits sized to the file, as chipflow's limitsFor does: the default
	// cap on parasitic entries per file would stop the stream early.
	c.lim = guard.Limits{MaxNets: chipNets + 1, MaxElements: chipNets * (8*50 + 16)}
	return nil
}

// writeDesign writes the SPEF design: nets of 1–99 sections (mean 50) on
// chipflow's random trees and value ranges, in OHM/NH/PF units. It fills
// in each net's reference summary.
func writeDesign(w io.Writer, rng *rand.Rand, nets int, c *chipStream) error {
	b := []byte("*SPEF \"IEEE 1481-1998\"\n*DESIGN \"perfbench\"\n*DIVIDER /\n*DELIMITER :\n" +
		"*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n*L_UNIT 1 NH\n\n")
	c.want = make([]netWant, nets)
	var vals [3][]float64
	for i := 0; i < nets; i++ {
		n := 1 + rng.Intn(99)
		parents := randomParents(rng, n)
		t := &ref.Tree{}
		for k := range vals {
			vals[k] = vals[k][:0]
		}
		for k := 0; k < n; k++ {
			cv := round6(0.005 + rng.Float64()*0.05)
			rv := round6(1 + rng.Float64()*40)
			lv := round6(0.05 + rng.Float64()*0.5)
			vals[0], vals[1], vals[2] = append(vals[0], cv), append(vals[1], rv), append(vals[2], lv)
			t.Add(parents[k], rv, lv*1e-9, cv*1e-12)
		}
		leaves := t.Leaves()
		net := "n" + strconv.Itoa(i)
		node := func(b []byte, k int) []byte { // section k is SPEF node k+1; the driver is node 0
			b = append(b, net...)
			b = append(b, ':')
			return strconv.AppendInt(b, int64(k+1), 10)
		}
		b = append(b, "*D_NET "+net+" "...)
		b = strconv.AppendFloat(b, float64(n)*0.03, 'g', 6, 64)
		b = append(b, "\n*CONN\n*I "+net+":0 O\n"...)
		for k := 0; k < n; k++ {
			if leaves[k] {
				b = append(node(append(b, "*I "...), k), " I\n"...)
			}
		}
		for s, sec := range []string{"*CAP\n", "*RES\n", "*INDUC\n"} {
			b = append(b, sec...)
			for k := 0; k < n; k++ {
				b = append(strconv.AppendInt(b, int64(k+1), 10), ' ')
				if s > 0 {
					b = append(node(b, int(parents[k])), ' ')
				}
				b = append(node(b, k), ' ')
				b = append(strconv.AppendFloat(b, vals[s][k], 'g', -1, 64), '\n')
			}
		}
		b = append(b, "*END\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]

		d := ref.Delays(t)
		nw := netWant{sections: n}
		var sum float64
		for k, leaf := range leaves {
			if leaf {
				nw.sinks++
				sum += d[k]
				nw.maxDelay = max(nw.maxDelay, d[k])
			}
		}
		nw.avgDelay = sum / float64(nw.sinks)
		c.want[i] = nw
	}
	return nil
}

func (c *chipStream) teardown() {}

// check compares one net's summary with the reference.
func (c *chipStream) check(i int, ns timing.NetSummary) error {
	w := c.want[i]
	if ns.Sections != w.sections || ns.Sinks != w.sinks ||
		!ref.Close(ns.MaxDelay, w.maxDelay, 1e-9) || !ref.Close(ns.AvgDelay, w.avgDelay, 1e-9) {
		return opErr("net n%d: got %d sections, %d sinks, worst %g s, mean %g s; reference %d, %d, %g s, %g s",
			i, ns.Sections, ns.Sinks, ns.MaxDelay, ns.AvgDelay, w.sections, w.sinks, w.maxDelay, w.avgDelay)
	}
	return nil
}

// round streams the file once. A net's latency is the interval from the
// previous net's result (or the start of the pass) to its own at the
// fold: what a consumer of the stream waits per net.
func (c *chipStream) round(lat *[]time.Duration) error {
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var bad error
	prev := time.Now()
	cfg := engine.PipelineConfig{Workers: 1, Limits: c.lim, OnNet: func(res engine.NetResult) {
		now := time.Now()
		*lat = append(*lat, now.Sub(prev))
		prev = now
		if bad != nil {
			return
		}
		if res.Err != nil {
			bad = opErr("net n%d failed: %v", res.Index, res.Err)
			return
		}
		bad = c.check(res.Index, res.Summary)
	}}
	_, st, err := engine.RunPipeline(context.Background(), f, cfg)
	switch {
	case err != nil:
		return opErr("pipeline: %v", err)
	case bad != nil:
		return bad
	case st.Nets != chipNets || st.Failed != 0:
		return opErr("pipeline analyzed %d nets with %d failures, want %d", st.Nets, st.Failed, chipNets)
	}
	return nil
}

// replayPass runs the pipeline's layers over the file serially, in one
// goroutine, with a span around each layer call when tr is non-nil. It
// returns the nets done.
func (c *chipStream) replayPass(tr *tracer, op *int64) (int, error) {
	f, err := os.Open(c.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ctx := context.Background()
	s := spef.StreamLimits(f, c.lim)
	agg := timing.NewChipAggregator(0)
	for i := 0; ; i++ {
		*op++
		id := tr.begin("spef.next", 0, *op)
		n, err := s.Next()
		tr.end(id)
		if err == io.EOF {
			return i, nil
		}
		if err != nil {
			return i, opErr("net %d: stream: %v", i, err)
		}
		id = tr.begin("spef.tree", 0, *op)
		t, err := n.Tree(s.Units())
		tr.end(id)
		if err != nil {
			return i, opErr("net %d: tree: %v", i, err)
		}
		id = tr.begin("core.analyze", 0, *op)
		nodes, err := core.AnalyzeTreeCtx(ctx, t)
		tr.end(id)
		if err != nil {
			return i, opErr("net %d: analyze: %v", i, err)
		}
		id = tr.begin("timing.summarize", 0, *op)
		ns, err := timing.SummarizeNet(n.Name, nodes)
		tr.end(id)
		if err != nil {
			return i, opErr("net %d: summarize: %v", i, err)
		}
		id = tr.begin("timing.aggregate", 0, *op)
		agg.Add(ns)
		tr.end(id)
		s.Recycle(n)
		if err := c.check(i, ns); err != nil {
			return i, err
		}
	}
}

// allocPass streams the first nets once more and measures each layer
// call's allocation alone, and times ElmoreSums on each tree.
func (c *chipStream) allocPass(tc *traceRun, nets int) (next, tree, treeObjs, analyze float64, err error) {
	f, err := os.Open(c.path)
	if err != nil {
		return
	}
	defer f.Close()
	ctx := context.Background()
	s := spef.StreamLimits(f, c.lim)
	var am allocMeter
	var nb, tb, to, ab uint64
	for i := 0; i < nets; i++ {
		var n *spef.Net
		var t *rlctree.Tree
		var e error
		b, _ := am.measure(func() { n, e = s.Next() })
		if e != nil {
			return 0, 0, 0, 0, opErr("net %d: stream: %v", i, e)
		}
		nb += b
		b, o := am.measure(func() { t, e = n.Tree(s.Units()) })
		if e != nil {
			return 0, 0, 0, 0, opErr("net %d: tree: %v", i, e)
		}
		tb, to = tb+b, to+o
		b, _ = am.measure(func() { _, e = core.AnalyzeTreeCtx(ctx, t) })
		if e != nil {
			return 0, 0, 0, 0, opErr("net %d: analyze: %v", i, e)
		}
		ab += b
		id := tc.tr.begin("rlctree.sums", 0, 0)
		t.ElmoreSums()
		tc.tr.end(id)
		s.Recycle(n)
	}
	k := float64(nets)
	return float64(nb) / 1024 / k, float64(tb) / 1024 / k, float64(to) / k, float64(ab) / 1024 / k, nil
}

func (c *chipStream) traced(tc *traceRun) error {
	half := tc.cfg.seconds / 2
	var op int64
	plain, err := timedRounds(half, func() (int, error) { return c.replayPass(nil, &op) })
	if err != nil {
		return err
	}
	op = 0
	traced, err := timedRounds(half, func() (int, error) { return c.replayPass(&tc.tr, &op) })
	if err != nil {
		return err
	}
	nextKiB, treeKiB, treeObjs, anKiB, err := c.allocPass(tc, 500)
	if err != nil {
		return err
	}
	st := tc.tr.selfTimes()
	ops := st["spef.tree"].calls
	fmt.Println("chip_stream ledger (serial replay of the pipeline's layers, one goroutine):")
	next := tc.ledger(st, "spef.next", ops, "parse stage")
	tree := tc.ledger(st, "spef.tree", ops, "worker")
	an := tc.ledger(st, "core.analyze", ops, "worker, includes one ElmoreSums pass")
	sum := tc.ledger(st, "timing.summarize", ops, "worker")
	agg := tc.ledger(st, "timing.aggregate", ops, "fold")
	sums := tc.ledger(st, "rlctree.sums", 500, "alloc pass; already inside core.analyze")
	for name, v := range map[string]float64{"spef.next_us": next, "spef.tree_us": tree, "core.analyze_us": an,
		"timing.summarize_us": sum, "timing.aggregate_us": agg, "rlctree.sums_us": sums,
		"spef.next_kib": nextKiB, "spef.tree_kib": treeKiB, "spef.tree_allocs": treeObjs, "core.analyze_kib": anKiB} {
		tc.layers[name] = v
	}
	fmt.Printf("  alloc per call: spef.next %.3f KiB, spef.tree %.3f KiB in %.1f objects, core.analyze %.3f KiB\n",
		nextKiB, treeKiB, treeObjs, anKiB)
	pipeUS := tc.untraced.perOpUS()
	worker := tree + an + sum
	tc.layers["engine.pipeline_unaccounted_us"] = pipeUS - worker
	tc.reconcile("wall", pipeUS, worker, "spef.tree + core.analyze + timing.summarize on the one worker")
	cpuUS := tc.untraced.cpu.Seconds() * 1e6 / float64(tc.untraced.ops)
	tc.reconcile("cpu", cpuUS, next+worker+agg, "all five layers, both goroutines")
	tc.overhead("serial replay", traced, plain)
	fmt.Printf("  untraced pipeline: %.2f nets/s with parse and analyze overlapped\n", 1e6/pipeUS)
	return nil
}
