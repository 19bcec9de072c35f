package engine

import (
	"context"
	"math/rand"
	"testing"

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

// TestSweepHistogramsPerSweep: the engine records exactly one latency and
// one worker-width sample per analysis sweep (a session answering from
// its held result records nothing), keeping instrumentation off the
// per-node path.
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
}

// TestObsOffRecordsNothing: with the global switch off, an analysis leaves
// every engine metric untouched — the contract the overhead budget and
// BenchmarkAnalyzeTreeParallelBaseline rest on.
func TestObsOffRecordsNothing(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	ctx := context.Background()
	eng := New(Options{Workers: 2})
	rng := rand.New(rand.NewSource(13))
	sess, err := newSession(eng, rlctree.Random(rng, rlctree.RandomSpec{Sections: 25}))
	if err != nil {
		t.Fatal(err)
	}

	before := snapCacheCounters()
	lat0 := mSweepLatency.Count()
	for i := 0; i < 3; i++ {
		if _, err := sess.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if after := snapCacheCounters(); after != before {
		t.Errorf("cache counters moved while disabled: %+v -> %+v", before, after)
	}
	if got := mSweepLatency.Count(); got != lat0 {
		t.Errorf("sweep latency recorded %d samples while disabled", got-lat0)
	}
	// The engine's own CacheStats must keep counting regardless: the
	// switch gates the observability layer, not the held result.
	if cs := eng.CacheStats(); cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("CacheStats = %+v, want 2 hits / 1 miss with obs off", cs)
	}
}
