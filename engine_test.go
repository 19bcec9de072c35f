// Repository-level acceptance tests for the concurrent execution layer:
// the engine's sharded sweep must be bit-identical to the serial analysis
// on the Appendix 65 536-section complexity case, and — on hardware with
// enough parallelism — at least 2× faster at 4+ workers.
package eedtree_test

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/rlctree"
)

func appendixTree(t *testing.T) *rlctree.Tree {
	t.Helper()
	tree, err := rlctree.Line("w", 65536, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestEngineParallelBitIdentical65536: on the benchmark's own 65 536-section
// line, the sharded sweep reproduces the serial result bit for bit at every
// node, for worker counts spanning odd shard boundaries.
func TestEngineParallelBitIdentical65536(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-section sweep skipped in -short mode")
	}
	tree := appendixTree(t)
	ctx := context.Background()
	want, err := core.AnalyzeTreeCtx(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, workers := range []int{2, 4, 7, 16} {
		got, err := engine.New(engine.Options{Workers: workers}).AnalyzeTree(ctx, tree)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Section != w.Section || !eq(g.Delay50, w.Delay50) || !eq(g.RiseTime, w.RiseTime) ||
				!eq(g.Overshoot, w.Overshoot) || !eq(g.SettlingTime, w.SettlingTime) ||
				!eq(g.ElmoreDelay50, w.ElmoreDelay50) || !eq(g.Model.Zeta(), w.Model.Zeta()) ||
				!eq(g.Model.OmegaN(), w.Model.OmegaN()) {
				t.Fatalf("workers=%d node %d (%s): parallel result diverges from serial",
					workers, i, w.Section.Name())
			}
		}
	}
}

// TestEngineParallelSpeedup65536 asserts the acceptance criterion of the
// concurrency layer — ≥2× over serial at 4 workers on the Appendix case —
// on hosts that actually have 4 hardware threads to parallelize over; on
// smaller hosts (including 1-CPU CI runners) it skips, since no worker
// pool can beat serial without cores to run on. A 1.8× bound is asserted
// to absorb scheduler noise while still failing if sharding ever degrades
// to serialized execution.
func TestEngineParallelSpeedup65536(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("GOMAXPROCS=%d: need ≥4 hardware threads to measure parallel speedup", p)
	}
	tree := appendixTree(t)
	ctx := context.Background()
	measure := func(workers int) time.Duration {
		eng := engine.New(engine.Options{Workers: workers})
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ { // best-of-3 damps scheduler noise
			start := time.Now()
			if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	measure(4) // warm caches before timing
	serial := measure(1)
	parallel := measure(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, 4 workers %v: %.2fx speedup", serial, parallel, speedup)
	if speedup < 1.8 {
		t.Fatalf("4-worker sweep only %.2fx faster than serial (want ≥2x, asserting ≥1.8x)", speedup)
	}
}
