package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// sameAnalyses compares two analysis slices bit-for-bit: identical Section
// pointers and bitwise-equal float fields (NaN-safe, which == is not — the
// SettlingTime of a degenerate node is NaN in both paths and must compare
// equal here).
func sameAnalyses(t *testing.T, got, want []core.NodeAnalysis) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range got {
		g, w := got[i], want[i]
		ok := g.Section == w.Section &&
			eq(g.Model.Zeta(), w.Model.Zeta()) &&
			eq(g.Model.OmegaN(), w.Model.OmegaN()) &&
			eq(g.Model.TauRC(), w.Model.TauRC()) &&
			g.Model.RCOnly() == w.Model.RCOnly() &&
			g.Model.DegradedReason() == w.Model.DegradedReason() &&
			eq(g.Delay50, w.Delay50) &&
			eq(g.RiseTime, w.RiseTime) &&
			eq(g.Overshoot, w.Overshoot) &&
			eq(g.SettlingTime, w.SettlingTime) &&
			eq(g.ElmoreDelay50, w.ElmoreDelay50) &&
			eq(g.ElmoreRiseTime, w.ElmoreRiseTime) &&
			g.Degraded == w.Degraded &&
			g.DegradedReason == w.DegradedReason
		if !ok {
			t.Fatalf("node %d (%s): parallel %+v != serial %+v", i, w.Section.Name(), g, w)
		}
	}
}

// TestParallelMatchesSerialRandomTrees: bit-exact equivalence of
// Engine.AnalyzeTree on randomized trees across worker counts 1/2/8,
// including trees large enough to genuinely engage the worker pool and
// trees with zero-inductance (RC degraded) sections.
func TestParallelMatchesSerialRandomTrees(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		for _, sections := range []int{1, 17, 300, parallelThreshold + 513} {
			rng := rand.New(rand.NewSource(seed))
			spec := rlctree.RandomSpec{Sections: sections}
			if seed == 2 {
				spec.MaxL = 1e-300 // near-degenerate inductances stress FromSums fallbacks
			}
			tree := rlctree.Random(rng, spec)
			want, err := core.AnalyzeTreeCtx(ctx, tree)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := New(Options{Workers: workers}).AnalyzeTree(ctx, tree)
				if err != nil {
					t.Fatalf("seed=%d n=%d workers=%d: %v", seed, sections, workers, err)
				}
				sameAnalyses(t, got, want)
			}
		}
	}
}

func TestParallelEmptyTree(t *testing.T) {
	if _, err := New(Options{Workers: 4}).AnalyzeTree(context.Background(), rlctree.New()); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("error %v, want guard.ErrTopology", err)
	}
}

// TestParallelErrorMatchesSerial: a node whose Σ C·R overflows to +Inf
// hard-fails analysis; the parallel join must surface the same
// lowest-index failure the serial sweep reports, whichever shard hit it.
func TestParallelErrorMatchesSerial(t *testing.T) {
	tree, err := rlctree.Line("w", parallelThreshold+100, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	tree.MustAddSection("boom", tree.Leaves()[0], 1e308, 0, 1e308)
	_, serialErr := core.AnalyzeTreeCtx(context.Background(), tree)
	if serialErr == nil {
		t.Fatal("serial analysis should fail")
	}
	_, parErr := New(Options{Workers: 8}).AnalyzeTree(context.Background(), tree)
	if parErr == nil {
		t.Fatal("parallel analysis should fail")
	}
	if !errors.Is(parErr, guard.ErrNumeric) || parErr.Error() != serialErr.Error() {
		t.Fatalf("parallel error %q != serial error %q", parErr, serialErr)
	}
}

// TestParallelCancelMidSweep: cancellation during the sharded sweep
// surfaces as guard.ErrCanceled. The context fires from a worker's own
// periodic check via a hook context that cancels itself after a fixed
// number of polls, so the sweep is deterministically interrupted mid-range.
func TestParallelCancelMidSweep(t *testing.T) {
	tree, err := rlctree.Line("w", 4*parallelThreshold, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &cancelAfterPolls{Context: ctx, cancel: cancel, after: 3}
	_, err = New(Options{Workers: 4}).AnalyzeTree(hook, tree)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want guard.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// cancelAfterPolls cancels its parent context after `after` calls to
// Done(), simulating a deadline that fires while workers are mid-shard.
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	mu     chan struct{} // lazily built mutex-free counter guard
	n      int
	after  int
}

func (c *cancelAfterPolls) Done() <-chan struct{} {
	if c.mu == nil {
		c.mu = make(chan struct{}, 1)
	}
	c.mu <- struct{}{}
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	<-c.mu
	return c.Context.Done()
}

func TestParallelAlreadyCanceled(t *testing.T) {
	tree, err := rlctree.Line("w", 64, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{Workers: 4}).AnalyzeTree(ctx, tree); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want guard.ErrCanceled", err)
	}
}

// TestEngineConcurrentUse: one shared engine serving many goroutines must
// be race-free (run under -race) and correct.
func TestEngineConcurrentUse(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 2})
	trees := make([]*rlctree.Tree, 8)
	for i := range trees {
		trees[i] = rlctree.Random(rand.New(rand.NewSource(int64(i))), rlctree.RandomSpec{Sections: 40})
	}
	wants := make([][]core.NodeAnalysis, len(trees))
	for i, tr := range trees {
		w, err := core.AnalyzeTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	done := make(chan error, 32)
	for g := 0; g < 32; g++ {
		go func(g int) {
			tr := trees[g%len(trees)]
			got, err := e.AnalyzeTree(ctx, tr)
			if err != nil {
				done <- err
				return
			}
			if len(got) != tr.Len() || got[0].Section != tr.Sections()[0] {
				done <- errors.New("wrong result shape")
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 32; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles every tree must still analyze to the serial
	// truth (no cross-goroutine aliasing).
	for i, tr := range trees {
		got, err := e.AnalyzeTree(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalyses(t, got, wants[i])
	}
}
