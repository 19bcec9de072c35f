package engine

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// cacheCounterSnapshot captures the registry's cache counters so tests can
// compare deltas (the default registry is process-global and other tests
// may have bumped it already).
type cacheCounterSnapshot struct {
	hits, misses uint64
}

func snapCacheCounters() cacheCounterSnapshot {
	return cacheCounterSnapshot{hits: mCacheHits.Value(), misses: mCacheMisses.Value()}
}

// gaugesBack reads gs now and returns a check that each is back at that
// value.
func gaugesBack(t *testing.T, gs ...*obs.Gauge) func(after string) {
	start := make([]int64, len(gs))
	for i, g := range gs {
		start[i] = g.Value()
	}
	return func(after string) {
		t.Helper()
		for i, g := range gs {
			if v := g.Value(); v != start[i] {
				t.Errorf("after %s: %s = %d, want %d", after, g.Name(), v, start[i])
			}
		}
	}
}

// TestCacheCountersMatchCacheStats is the wiring contract the exposition
// dump relies on: the registry's cache counters move in lockstep with the
// engine's own CacheStats, because Session.Analyze bumps both at the same
// sites.
func TestCacheCountersMatchCacheStats(t *testing.T) {
	ctx := context.Background()
	eng := New(Options{Workers: 2})
	rng := rand.New(rand.NewSource(7))
	a, err := newSession(eng, rlctree.Random(rng, rlctree.RandomSpec{Sections: 40}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSession(eng, rlctree.Random(rng, rlctree.RandomSpec{Sections: 41}))
	if err != nil {
		t.Fatal(err)
	}

	analyze := func(sess *Session) {
		t.Helper()
		if _, err := sess.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	}

	before := snapCacheCounters()
	analyze(a) // miss
	analyze(a) // hit
	analyze(a) // hit
	analyze(b) // miss
	if err := a.SetC(a.Tree().Sections()[0], 1e-14); err != nil {
		t.Fatal(err)
	}
	analyze(a) // miss: the edit moved the generation
	after := snapCacheCounters()
	cs := eng.CacheStats()

	if got := after.hits - before.hits; got != cs.Hits {
		t.Errorf("registry hits delta = %d, CacheStats.Hits = %d", got, cs.Hits)
	}
	if got := after.misses - before.misses; got != cs.Misses {
		t.Errorf("registry misses delta = %d, CacheStats.Misses = %d", got, cs.Misses)
	}
	if cs.Hits != 2 || cs.Misses != 3 {
		t.Errorf("CacheStats = %+v, want 2 hits / 3 misses", cs)
	}
}

// TestSweepHistogramsPerSweep: instrumentation is paid per sweep, never
// per node. A session answering from its held result records nothing,
// and one Engine.AnalyzeTree on the sharded path adds exactly one sample
// to each histogram the sweep feeds, whatever the tree size.
func TestSweepHistogramsPerSweep(t *testing.T) {
	ctx := context.Background()
	eng := New(Options{Workers: 3})
	rng := rand.New(rand.NewSource(11))
	sess, err := newSession(eng, rlctree.Random(rng, rlctree.RandomSpec{Sections: 30}))
	if err != nil {
		t.Fatal(err)
	}

	lat0, wrk0 := mSweepLatency.Count(), mSweepWorkers.Count()
	if _, err := sess.Analyze(ctx); err != nil { // miss: one sweep
		t.Fatal(err)
	}
	if _, err := sess.Analyze(ctx); err != nil { // hit: no sweep
		t.Fatal(err)
	}
	if got := mSweepLatency.Count() - lat0; got != 1 {
		t.Errorf("sweep latency samples = %d, want 1", got)
	}
	if got := mSweepWorkers.Count() - wrk0; got != 1 {
		t.Errorf("sweep worker samples = %d, want 1", got)
	}

	hists := []*obs.Histogram{
		obs.Default().Histogram("eed_core_sums_latency_ns", "", obs.DefaultLatencyBuckets),
		obs.Default().Histogram("eed_core_kernel_latency_ns", "", obs.DefaultLatencyBuckets),
		mSweepLatency,
		mSweepWorkers,
	}
	for _, n := range []int{4096, 16384} {
		tree, err := rlctree.Line("w", n, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
		if err != nil {
			t.Fatal(err)
		}
		before := make([]uint64, len(hists))
		for i, h := range hists {
			before[i] = h.Count()
		}
		if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
			t.Fatal(err)
		}
		for i, h := range hists {
			if got := h.Count() - before[i]; got != 1 {
				t.Errorf("%d sections: %s samples = %d, want 1", n, h.Name(), got)
			}
		}
	}
}

// TestSweepAllocsIndependentOfObs: the pipeline's per-net wrapping of a
// sweep — a stage on a wide event, then FlightRecorder.Record of the
// healthy event — allocates within 2 of the bare sweep. The slack
// absorbs worker goroutine start-up, which varies by one from run to
// run. With TestMetricWritesAllocateNothing in internal/obs, which
// covers the metric writes inside the sweep, this keeps instrumentation
// from adding allocations to a sweep.
func TestSweepAllocsIndependentOfObs(t *testing.T) {
	ctx := context.Background()
	eng := New(Options{Workers: 4})
	tree, err := rlctree.Line("w", 4096, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	sweepUnder := func(ctx context.Context) {
		if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	fr := obs.NewFlightRecorder(16, 4, time.Hour)
	ev := &obs.WideEvent{}
	evCtx := obs.WithEvent(ctx, ev)
	recorded := func() {
		*ev = obs.WideEvent{Route: "pipeline.net", Net: "w"}
		st := obs.StartStage(evCtx, "analyze", nil)
		sweepUnder(evCtx)
		ev.TotalNS = int64(st.End())
		fr.Record(ev, nil)
	}

	bare := testing.AllocsPerRun(5, func() { sweepUnder(ctx) })
	withEvent := testing.AllocsPerRun(5, recorded)
	t.Logf("allocations per sweep: bare %.0f, with event and Record %.0f", bare, withEvent)
	if withEvent > bare+2 {
		t.Errorf("stage plus Record: %.0f allocations per sweep, bare sweep %.0f", withEvent, bare)
	}
}

// histogramCounts returns every _count line of the default registry's
// exposition: one line per histogram, holding its sample count.
func histogramCounts(t *testing.T) []string {
	t.Helper()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "_count") {
			out = append(out, line)
		}
	}
	return out
}

// TestSessionQueriesReadNoClock: an O(depth) session call is counted,
// not timed, because its path walk costs less than two clock reads.
// 10,000 edit→query cycles, plus SumsAt, AnalyzeAt and EditAndAnalyze,
// add no sample to any histogram, and a stage reads the clock only when
// it has a sink (TestStageReadsClockIffItHasASink in internal/obs), so
// no sample means no clock read. A structural edit, which costs
// anywhere from O(depth) to O(n), is still timed: one sample each.
func TestSessionQueriesReadNoClock(t *testing.T) {
	ctx := context.Background()
	tree, err := rlctree.Line("w", 64, rlctree.SectionValues{R: 10, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(tree)
	if err != nil {
		t.Fatal(err)
	}
	secs := tree.Sections()
	sink := secs[len(secs)-1]
	const cycles = 10000
	before, queries := histogramCounts(t), mIncrQueries.Value()
	for i := 0; i < cycles; i++ {
		sec := secs[i%len(secs)]
		w := 1 + float64(i%7)
		if err := sess.SetC(sec, 50e-15*w); err != nil {
			t.Fatal(err)
		}
		if err := sess.SetR(sec, 10/w); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.DelayAt(sink); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := sess.SumsAt(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AnalyzeAt(sink); err != nil {
		t.Fatal(err)
	}
	edits := []SectionEdit{{Section: secs[3], Elem: rlctree.ElemL, Value: 2e-9}}
	if _, err := sess.EditAndAnalyze(ctx, edits, sink); err != nil {
		t.Fatal(err)
	}
	if got := mIncrQueries.Value() - queries; got != cycles+3 {
		t.Errorf("eed_incr_queries_total rose by %d, want %d", got, cycles+3)
	}
	if after := histogramCounts(t); !slices.Equal(after, before) {
		t.Errorf("O(depth) session calls moved histogram counts:\nbefore %q\nafter  %q", before, after)
	}

	structural := mIncrStructLatency.Count()
	tap, err := sess.AttachLeaf("tap", sink, 2, 0, 5e-15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Detach(tap); err != nil {
		t.Fatal(err)
	}
	if got := mIncrStructLatency.Count() - structural; got != 2 {
		t.Errorf("AttachLeaf and Detach added %d eed_incr_structural_latency_ns samples, want 2", got)
	}
}
