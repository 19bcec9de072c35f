package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
	"eedtree/perfbench/ref"
)

// bigTree is rlcdelay's path on large trees: each op parses one tree's
// text with rlctree.ParseLimits and analyzes it with Engine.AnalyzeTree
// on nproc workers, on a fresh engine whose result cache has not seen
// the tree, as in a fresh rlcdelay run. The op is one tree; a round is
// the nine trees — H-tree, long line and random, at 8k, 16k and 32k
// sections — in a seeded order.
type bigTree struct {
	names  []string
	texts  [][]byte
	delays [][]float64 // reference delay of every node
	order  []int
}

func (b *bigTree) setup(seed int64, _ string) error {
	rng := rand.New(rand.NewSource(seed))
	add := func(name string, parents []int32, scale func(int) float64) {
		t := randomValues(rng, parents, scale)
		b.names = append(b.names, fmt.Sprintf("%s-%d", name, len(parents)))
		b.texts = append(b.texts, treeText(t, "b"))
		b.delays = append(b.delays, ref.Delays(t))
	}
	for _, levels := range []int{13, 14, 15} {
		// Binary H-tree, heap-indexed; segment length halves every two
		// levels, scaling R, L and C together.
		p := make([]int32, 1<<levels-1)
		for i := range p {
			p[i] = int32((i+1)/2 - 1)
		}
		add("htree", p, func(i int) float64 { return math.Pow(0.5, float64(bits.Len(uint(i+1))-1)/2) })
	}
	for _, n := range []int{8192, 16384, 32768} {
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(i - 1)
		}
		add("line", p, nil)
	}
	for _, n := range []int{8192, 16384, 32768} {
		// Random: each section extends the previous one or branches off
		// a uniformly chosen earlier one, with equal odds.
		p := make([]int32, n)
		p[0] = -1
		for i := 1; i < n; i++ {
			p[i] = int32(i - 1)
			if rng.Intn(2) == 0 {
				p[i] = int32(rng.Intn(i))
			}
		}
		add("random", p, nil)
	}
	b.order = rng.Perm(len(b.texts))
	return nil
}

func (b *bigTree) teardown() {}

func (b *bigTree) check(k int, out []core.NodeAnalysis) error {
	want := b.delays[k]
	if len(out) != len(want) {
		return opErr("tree %s: %d nodes analyzed, want %d", b.names[k], len(out), len(want))
	}
	for i := range out {
		if !ref.Close(out[i].Delay50, want[i], 1e-9) {
			return opErr("tree %s node b%d: delay %g s, reference %g s", b.names[k], i, out[i].Delay50, want[i])
		}
	}
	return nil
}

func (b *bigTree) round(lat *[]time.Duration) error {
	ctx := context.Background()
	for _, k := range b.order {
		t0 := time.Now()
		t, err := rlctree.ParseLimits(bytes.NewReader(b.texts[k]), guard.Limits{})
		if err != nil {
			return opErr("tree %s: parse: %v", b.names[k], err)
		}
		out, err := engine.New(engine.Options{}).AnalyzeTree(ctx, t)
		*lat = append(*lat, time.Since(t0))
		if err != nil {
			return opErr("tree %s: analyze: %v", b.names[k], err)
		}
		if err := b.check(k, out); err != nil {
			return err
		}
	}
	return nil
}

func (b *bigTree) traced(tc *traceRun) error {
	ctx := context.Background()
	tr := &tc.tr
	var am allocMeter
	var parseBytes uint64
	var op int64
	rate, err := timedRounds(tc.cfg.seconds, func() (int, error) {
		for _, k := range b.order {
			op++
			var t *rlctree.Tree
			var err error
			n, _ := am.measure(func() {
				id := tr.begin("rlctree.parse", 0, op)
				t, err = rlctree.ParseLimits(bytes.NewReader(b.texts[k]), guard.Limits{})
				tr.end(id)
			})
			parseBytes += n
			if err != nil {
				return 0, opErr("tree %s: parse: %v", b.names[k], err)
			}
			id := tr.begin("rlctree.fingerprint", 0, op)
			t.Fingerprint() // cached on the tree; AnalyzeTree's cache key reuses it
			tr.end(id)
			eng := engine.New(engine.Options{})
			id = tr.begin("engine.analyze_tree", 0, op)
			out, err := eng.AnalyzeTree(ctx, t)
			tr.end(id)
			if err != nil {
				return 0, opErr("tree %s: analyze: %v", b.names[k], err)
			}
			if err := b.check(k, out); err != nil {
				return 0, err
			}
		}
		return len(b.order), nil
	})
	if err != nil {
		return err
	}
	// Replay: the single-threaded sweep and the Appendix sums alone, on
	// every tree once.
	var anBytes uint64
	for _, k := range b.order {
		t, err := rlctree.ParseLimits(bytes.NewReader(b.texts[k]), guard.Limits{})
		if err != nil {
			return opErr("tree %s: parse: %v", b.names[k], err)
		}
		var out []core.NodeAnalysis
		n, _ := am.measure(func() {
			id := tr.begin("core.analyze", 0, 0)
			out, err = core.AnalyzeTreeCtx(ctx, t)
			tr.end(id)
		})
		anBytes += n
		if err != nil {
			return opErr("tree %s: serial analyze: %v", b.names[k], err)
		}
		if err := b.check(k, out); err != nil {
			return err
		}
		id := tr.begin("rlctree.sums", 0, 0)
		t.ElmoreSums()
		tr.end(id)
	}

	st := tr.selfTimes()
	fmt.Println("big_tree ledger (parse, fingerprint and analysis spans from the traced loop; serial sweep and sums from a replay):")
	parse := tc.ledger(st, "rlctree.parse", op, "")
	fp := tc.ledger(st, "rlctree.fingerprint", op, "computed here and cached for the engine's cache key")
	an := tc.ledger(st, "engine.analyze_tree", op, "nproc workers, cold cache")
	serial := tc.ledger(st, "core.analyze", int64(len(b.order)), "replay: single-threaded baseline")
	sums := tc.ledger(st, "rlctree.sums", int64(len(b.order)), "replay: inside both analyses")
	tc.layers["rlctree.parse_us"], tc.layers["rlctree.fingerprint_us"], tc.layers["engine.analyze_tree_us"] = parse, fp, an
	tc.layers["core.analyze_us"], tc.layers["rlctree.sums_us"] = serial, sums
	tc.layers["rlctree.parse_kib"] = float64(parseBytes) / 1024 / float64(op)
	tc.layers["core.analyze_kib"] = float64(anBytes) / 1024 / float64(len(b.order))
	fmt.Printf("  parse %.1f KiB/tree, serial sweep %.1f KiB/tree; parallel speed-up core.analyze / engine.analyze_tree = %.2fx\n",
		tc.layers["rlctree.parse_kib"], tc.layers["core.analyze_kib"], serial/an)
	tc.reconcile("wall", tc.untraced.perOpUS(), parse+fp+an, "rlctree.parse + rlctree.fingerprint + engine.analyze_tree")
	tc.overhead("trees", rate, float64(tc.untraced.ops)/tc.untraced.wall.Seconds())
	return nil
}
