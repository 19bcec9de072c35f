package incr

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// bitEq compares floats for bit equality (distinguishes ±0, accepts equal
// NaN bit patterns — though the kernel never stores non-finite values).
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSumsBitEqual(t *testing.T, got, want rlctree.Sums, context string) {
	t.Helper()
	if len(got.SR) != len(want.SR) {
		t.Fatalf("%s: length mismatch %d != %d", context, len(got.SR), len(want.SR))
	}
	for i := range want.SR {
		if !bitEq(got.SR[i], want.SR[i]) || !bitEq(got.SL[i], want.SL[i]) || !bitEq(got.Ctot[i], want.Ctot[i]) {
			t.Fatalf("%s: node %d: got SR=%x SL=%x Ctot=%x, want SR=%x SL=%x Ctot=%x",
				context, i,
				math.Float64bits(got.SR[i]), math.Float64bits(got.SL[i]), math.Float64bits(got.Ctot[i]),
				math.Float64bits(want.SR[i]), math.Float64bits(want.SL[i]), math.Float64bits(want.Ctot[i]))
		}
	}
}

// stateSums returns st.Sums(), failing the test on an error.
func stateSums(t *testing.T, st *State) rlctree.Sums {
	t.Helper()
	sums, err := st.Sums()
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func TestNewMatchesElmoreSums(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 1 + rng.Intn(64)})
		st, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "fresh state")
	}
}

var stateSink *State

// TestNewAllocBudget: a State reads R, L, C and the parent indices from
// its tree's own arrays and allocates only what it derives — Ctot, S_R,
// S_L and the two child-list arrays, 32 B per section. Copying the tree's
// four arrays as well (28 B per section) fails the budget.
func TestNewAllocBudget(t *testing.T) {
	const n, runs = 16384, 5
	tree := rlctree.Random(rand.New(rand.NewSource(1)), rlctree.RandomSpec{Sections: n})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		st, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		stateSink = st
	}
	runtime.ReadMemStats(&after)
	each := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
	t.Logf("New over %d sections: %.1f B per section, %.1f allocations per call",
		n, each, float64(after.Mallocs-before.Mallocs)/runs)
	if each > 36 {
		t.Errorf("New allocates %.1f B per section, budget 36", each)
	}
}

func TestNewEmptyTreeFails(t *testing.T) {
	if _, err := New(rlctree.New()); err == nil {
		t.Fatal("empty tree must fail")
	}
}

// TestTreeEmptiedAroundStateFails: once its tree is emptied by an edit
// made on the tree alone, the state has nothing to rebuild from, and
// Sums reports that as SumsAt does.
func TestTreeEmptiedAroundStateFails(t *testing.T) {
	tree := rlctree.New()
	root, err := tree.AttachLeaf("a", nil, 25, 1e-9, 50e-15)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Detach(root); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sums(); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("Sums on an emptied tree: %v, want ErrTopology", err)
	}
	if _, _, _, err := st.SumsAt(0); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("SumsAt on an emptied tree: %v, want ErrTopology", err)
	}
}

func TestEditValidation(t *testing.T) {
	tree := rlctree.Random(rand.New(rand.NewSource(1)), rlctree.RandomSpec{Sections: 4})
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := st.SetR(0, v); err == nil {
			t.Fatalf("SetR(0, %g) must fail", v)
		}
	}
	if err := st.SetC(99, 1); err == nil {
		t.Fatal("out-of-range index must fail")
	}
	if err := st.SetC(-1, 1); err == nil {
		t.Fatal("negative index must fail")
	}
	if _, _, _, err := st.SumsAt(99); err == nil {
		t.Fatal("out-of-range query must fail")
	}
}

// edit makes one element edit through the state, which makes it on the
// tree.
func edit(t *testing.T, st *State, idx int, elem rlctree.Elem, v float64) {
	t.Helper()
	var err error
	switch elem {
	case rlctree.ElemR:
		err = st.SetR(idx, v)
	case rlctree.ElemL:
		err = st.SetL(idx, v)
	case rlctree.ElemC:
		err = st.SetC(idx, v)
	}
	if err != nil {
		t.Fatalf("edit (%d, %v, %g): %v", idx, elem, v, err)
	}
}

// TestRandomEditSequenceBitEquality is the correctness contract of the
// incremental engine: across ≥1000 random SetR/SetL/SetC edits on random
// trees, the incrementally maintained sums are bit-identical to a
// from-scratch ElmoreSums of the equivalently edited tree — checked via
// single-sink SumsAt after every edit (exercising the lazy O(depth) path)
// and via the full Sums() refresh at random intervals (exercising the
// eager and re-sweep paths and the valid/stale transitions).
func TestRandomEditSequenceBitEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	totalEdits := 0
	for trial := 0; trial < 30; trial++ {
		spec := rlctree.RandomSpec{Sections: 1 + rng.Intn(96), ChainP: 0.5 + rng.Float64()*0.45}
		tree := rlctree.Random(rng, spec)
		st, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		n := tree.Len()
		for e := 0; e < 50; e++ {
			idx := rng.Intn(n)
			elem := rlctree.Elem(rng.Intn(3))
			var v float64
			switch rng.Intn(5) {
			case 0:
				v = 0 // exercise zero values (ideal junctions, RC-only paths)
			default:
				v = rng.Float64() * 100
			}
			edit(t, st, idx, elem, v)
			totalEdits++

			want := tree.ElmoreSums()
			q := rng.Intn(n)
			sr, sl, ctot, err := st.SumsAt(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(sr, want.SR[q]) || !bitEq(sl, want.SL[q]) || !bitEq(ctot, want.Ctot[q]) {
				t.Fatalf("trial %d edit %d: SumsAt(%d) = %x/%x/%x, want %x/%x/%x",
					trial, e, q,
					math.Float64bits(sr), math.Float64bits(sl), math.Float64bits(ctot),
					math.Float64bits(want.SR[q]), math.Float64bits(want.SL[q]), math.Float64bits(want.Ctot[q]))
			}
			if rng.Intn(7) == 0 {
				requireSumsBitEqual(t, stateSums(t, st), want, "full sums after edit")
			}
		}
		requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "end of trial")
	}
	if totalEdits < 1000 {
		t.Fatalf("property test covered only %d edits, want ≥ 1000", totalEdits)
	}
}

func TestStatsCounters(t *testing.T) {
	tree, err := rlctree.Line("w", 8, rlctree.SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetR(2, 5); err != nil { // valid sums → eager subtree refresh
		t.Fatal(err)
	}
	if got := st.Stats(); got.EditsR != 1 || got.SubtreeUpdates != 1 {
		t.Fatalf("after R edit: %+v", got)
	}
	if err := st.SetC(3, 5e-15); err != nil { // invalidates
		t.Fatal(err)
	}
	if _, _, _, err := st.SumsAt(7); err != nil { // lazy path query
		t.Fatal(err)
	}
	if got := st.Stats(); got.EditsC != 1 || got.PathQueries != 1 {
		t.Fatalf("after C edit + query: %+v", got)
	}
	stateSums(t, st) // lazy full sweep
	if got := st.Stats(); got.FullSweeps != 1 {
		t.Fatalf("after full sums: %+v", got)
	}
	// No-op edits count nothing.
	before := st.Stats()
	if err := st.SetL(0, tree.Sections()[0].L()); err != nil {
		t.Fatal(err)
	}
	if st.Stats() != before {
		t.Fatal("no-op edit must not bump stats")
	}
}

// TestSumsReturnsCopies: mutating a returned Sums must not corrupt the
// state.
func TestSumsReturnsCopies(t *testing.T) {
	tree, err := rlctree.Line("w", 4, rlctree.SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	s1 := stateSums(t, st)
	s1.SR[0] = 12345
	s1.Ctot[0] = 54321
	s2 := stateSums(t, st)
	if s2.SR[0] == 12345 || s2.Ctot[0] == 54321 {
		t.Fatal("Sums must return copies")
	}
}
