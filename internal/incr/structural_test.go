package incr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/rlctree"
)

// The helpers below run one structural tree op and then its state twin
// on the same arguments, the pairing engine.Session makes; a state op
// that fails after the tree accepted the op fails the test.

func attachLeafBoth(t *testing.T, tree *rlctree.Tree, st *State, name string, parent *rlctree.Section, r, l, c float64) error {
	t.Helper()
	sec, err := tree.AttachLeaf(name, parent, r, l, c)
	if err == nil {
		foldOK(t, "Attach", st.Attach([]*rlctree.Section{sec}))
	}
	return err
}

func attachSubtreeBoth(t *testing.T, tree *rlctree.Tree, st *State, parent *rlctree.Section, sub *rlctree.Tree) error {
	t.Helper()
	moved, err := tree.AttachSubtree(parent, sub)
	if err == nil {
		foldOK(t, "Attach", st.Attach(moved))
	}
	return err
}

func detachBoth(t *testing.T, tree *rlctree.Tree, st *State, sec *rlctree.Section) (*rlctree.Tree, error) {
	t.Helper()
	root := sec.Index()
	sub, err := tree.Detach(sec)
	if err == nil {
		foldOK(t, "Detach", st.Detach(root))
	}
	return sub, err
}

func splitBoth(t *testing.T, tree *rlctree.Tree, st *State, sec *rlctree.Section, k int) error {
	t.Helper()
	x := sec.Index()
	_, err := tree.SplitSection(sec, k)
	if err == nil {
		foldOK(t, "Split", st.Split(x, k))
	}
	return err
}

func foldOK(t *testing.T, op string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("state %s refused an op the tree accepted: %v", op, err)
	}
}

// randomSubtree builds a small random tree with names distinct from the
// main tree's (prefix p).
func randomSubtree(rng *rand.Rand, p string, n int) *rlctree.Tree {
	sub := rlctree.New()
	var secs []*rlctree.Section
	for i := 0; i < n; i++ {
		var parent *rlctree.Section
		if i > 0 {
			parent = secs[rng.Intn(len(secs))]
		}
		s := sub.MustAddSection(fmt.Sprintf("%s_%d", p, i), parent,
			rng.Float64()*20, rng.Float64()*2e-9, rng.Float64()*1e-13)
		secs = append(secs, s)
	}
	return sub
}

// TestRandomMixedStructuralBitEquality is the structural correctness
// contract: across ≥1500 interleaved value edits, leaf attaches, subtree
// attaches, detaches and splits, each made on the tree and then on the
// state, the state stays bit-identical to a from-scratch ElmoreSums of
// the mutated tree — checked at a random sink after every op (the lazy
// O(depth) path) and over the whole tree at intervals and at the end.
func TestRandomMixedStructuralBitEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	totalOps := 0
	for trial := 0; trial < 8; trial++ {
		tree := rlctree.Random(rng, rlctree.RandomSpec{
			Sections: 8 + rng.Intn(48), ChainP: 0.3 + rng.Float64()*0.6,
		})
		st, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		var pool []*rlctree.Tree // detached subtrees awaiting re-attach
		for op := 0; op < 220; op++ {
			secs := tree.Sections()
			switch rng.Intn(8) {
			case 0, 1, 2: // value edit (keep these the majority, as in practice)
				idx, v := rng.Intn(len(secs)), rng.Float64()*50
				applyBoth(t, tree, st, idx, rlctree.Elem(rng.Intn(3)), v)
			case 3: // leaf attach
				parent := secs[rng.Intn(len(secs))]
				if err := attachLeafBoth(t, tree, st, fmt.Sprintf("t%d_leaf%d", trial, op), parent,
					rng.Float64()*10, rng.Float64()*1e-9, rng.Float64()*1e-13); err != nil {
					t.Fatal(err)
				}
			case 4: // subtree attach: a fresh random tree or a pooled detach
				var sub *rlctree.Tree
				if len(pool) > 0 && rng.Intn(2) == 0 {
					sub = pool[len(pool)-1]
					pool = pool[:len(pool)-1]
				} else {
					sub = randomSubtree(rng, fmt.Sprintf("t%d_sub%d", trial, op), 1+rng.Intn(6))
				}
				parent := secs[rng.Intn(len(secs))]
				if err := attachSubtreeBoth(t, tree, st, parent, sub); err != nil {
					t.Fatal(err)
				}
			case 5: // detach (never empty the tree)
				if tree.Len() < 3 {
					continue
				}
				sec := secs[1+rng.Intn(len(secs)-1)]
				if sub, err := detachBoth(t, tree, st, sec); err != nil {
					t.Fatal(err)
				} else if rng.Intn(2) == 0 {
					pool = append(pool, sub)
				}
			case 6: // split
				sec := secs[rng.Intn(len(secs))]
				if err := splitBoth(t, tree, st, sec, 2+rng.Intn(4)); err != nil {
					// Splitting a section twice collides on the "~i" names;
					// legal to attempt, nothing to fold.
					continue
				}
			default: // no-op round: nothing mutated
			}
			totalOps++

			if st.Len() != tree.Len() {
				t.Fatalf("trial %d op %d: state has %d sections, tree %d", trial, op, st.Len(), tree.Len())
			}
			want := tree.ElmoreSums()
			q := rng.Intn(tree.Len())
			sr, sl, ctot, err := st.SumsAt(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(sr, want.SR[q]) || !bitEq(sl, want.SL[q]) || !bitEq(ctot, want.Ctot[q]) {
				t.Fatalf("trial %d op %d: SumsAt(%d) = %x/%x/%x, want %x/%x/%x",
					trial, op, q,
					math.Float64bits(sr), math.Float64bits(sl), math.Float64bits(ctot),
					math.Float64bits(want.SR[q]), math.Float64bits(want.SL[q]), math.Float64bits(want.Ctot[q]))
			}
			if rng.Intn(9) == 0 {
				requireSumsBitEqual(t, st.Sums(), want, "full sums after structural op")
			}
		}
		requireSumsBitEqual(t, st.Sums(), tree.ElmoreSums(), "end of trial")
	}
	if totalOps < 1500 {
		t.Fatalf("property test covered only %d ops, want ≥ 1500", totalOps)
	}
	st := func() Stats { // a sanity peek that structural paths actually ran
		tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 8})
		s, _ := New(tree)
		sub, _ := detachBoth(t, tree, s, tree.Sections()[4])
		_ = attachSubtreeBoth(t, tree, s, tree.Sections()[0], sub)
		_ = splitBoth(t, tree, s, tree.Sections()[1], 3)
		return s.Stats()
	}()
	if st.Detaches == 0 || st.Attaches == 0 || st.Splits == 0 {
		t.Fatalf("structural stats not counted: %+v", st)
	}
}

// TestStructuralOpsStatsAndErrors covers the defensive paths: ops that do
// not match the state are refused (the session then resynchronizes) and
// count nothing, a detach that would empty the state is refused, k = 1
// splits are no-ops, and the counters advance once per folded op.
func TestStructuralOpsStatsAndErrors(t *testing.T) {
	tree, err := rlctree.Line("w", 8, rlctree.SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	// An attach of sections that do not extend the state.
	if err := st.Attach(tree.Sections()[3:4]); err == nil {
		t.Fatal("misaligned attach must fail")
	}
	if err := st.Attach(nil); err == nil {
		t.Fatal("attach of no sections must fail")
	}
	// Detaches out of range, and one of the only root.
	for _, root := range []int{-1, 99} {
		if err := st.Detach(root); err == nil {
			t.Fatalf("out-of-range detach of %d must fail", root)
		}
	}
	if err := st.Detach(0); err == nil {
		t.Fatal("detach that empties the state must fail")
	}
	// Splits out of range, and a no-op k = 1 split.
	if err := st.Split(99, 2); err == nil {
		t.Fatal("out-of-range split must fail")
	}
	if err := st.Split(2, 0); err == nil {
		t.Fatal("split into 0 must fail")
	}
	if err := st.Split(2, 1); err != nil {
		t.Fatalf("k = 1 split must be a no-op: %v", err)
	}
	if got := st.Stats(); got.Attaches != 0 || got.Detaches != 0 || got.Splits != 0 {
		t.Fatalf("failed and no-op ops must not count: %+v", got)
	}
	requireSumsBitEqual(t, st.Sums(), tree.ElmoreSums(), "after refused ops")

	leaf := tree.Sections()[tree.Len()-1]
	if err := attachLeafBoth(t, tree, st, "x", leaf, 1, 0, 1e-15); err != nil {
		t.Fatal(err)
	}
	if err := splitBoth(t, tree, st, tree.Sections()[2], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := detachBoth(t, tree, st, tree.Section("x")); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Attaches != 1 || got.Detaches != 1 || got.Splits != 1 {
		t.Fatalf("each folded op must count once: %+v", got)
	}
	requireSumsBitEqual(t, st.Sums(), tree.ElmoreSums(), "after folded ops")
}

// FuzzStructuralEdits drives arbitrary interleavings of value edits,
// attach, detach and split decoded from raw bytes, each made on the tree
// and then on the state, asserting exact-bits agreement with from-scratch
// ElmoreSums after every op. Registered in `make fuzz-smoke`.
func FuzzStructuralEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 3, 100}) // SetR(3) = 100
	f.Add([]byte{0x01, 0, 7})   // AttachLeaf under s0
	f.Add([]byte{0x02, 5})      // Detach s5
	f.Add([]byte{0x03, 2, 3})   // Split s2 into 3
	f.Add([]byte{0x04, 1, 4})   // AttachSubtree(4 sections) under s1
	f.Add([]byte{0x02, 7, 0x04, 0, 3, 0x02, 1, 0x03, 0, 2, 0x00, 0, 9})
	f.Fuzz(func(t *testing.T, input []byte) {
		tree, err := rlctree.Line("s", 8, rlctree.SectionValues{R: 2, L: 1e-9, C: 5e-15})
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		serial := 0
		// Bound the work per input: every op runs a from-scratch O(n)
		// cross-check, so an unbounded op stream would be quadratic in the
		// input size and starve the fuzz budget.
		for ops := 0; len(input) > 0 && ops < 256; ops++ {
			op := input[0]
			input = input[1:]
			arg := func() int {
				if len(input) == 0 {
					return 0
				}
				v := int(input[0])
				input = input[1:]
				return v
			}
			secs := tree.Sections()
			switch op % 5 {
			case 0: // value edit
				idx := arg() % len(secs)
				v := float64(arg())
				elem := rlctree.Elem(op / 5 % 3)
				if elem == rlctree.ElemC {
					v *= 1e-15
				}
				applyBoth(t, tree, st, idx, elem, v)
			case 1: // leaf attach
				parent := secs[arg()%len(secs)]
				serial++
				if err := attachLeafBoth(t, tree, st, fmt.Sprintf("f%d", serial), parent,
					1, 0, float64(arg())*1e-15); err != nil {
					t.Fatal(err)
				}
			case 2: // detach (keep at least two sections)
				if tree.Len() < 3 {
					continue
				}
				sec := secs[1+arg()%(len(secs)-1)]
				if _, err := detachBoth(t, tree, st, sec); err != nil {
					t.Fatal(err)
				}
			case 3: // split
				sec := secs[arg()%len(secs)]
				if err := splitBoth(t, tree, st, sec, 2+arg()%3); err != nil {
					// Name collision with an earlier split of the same
					// section is legal input; skip.
					continue
				}
			default: // subtree attach
				parent := secs[arg()%len(secs)]
				serial++
				sub := rlctree.New()
				var prev *rlctree.Section
				for i := 0; i <= arg()%4; i++ {
					prev = sub.MustAddSection(fmt.Sprintf("g%d_%d", serial, i), prev,
						1, 1e-10, 2e-15)
				}
				if err := attachSubtreeBoth(t, tree, st, parent, sub); err != nil {
					t.Fatal(err)
				}
			}

			want := tree.ElmoreSums()
			q := (serial + tree.Len()) % tree.Len()
			sr, sl, ctot, err := st.SumsAt(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(sr, want.SR[q]) || !bitEq(sl, want.SL[q]) || !bitEq(ctot, want.Ctot[q]) {
				t.Fatalf("SumsAt(%d) diverged after %v: %x/%x/%x vs %x/%x/%x", q, op%5,
					math.Float64bits(sr), math.Float64bits(sl), math.Float64bits(ctot),
					math.Float64bits(want.SR[q]), math.Float64bits(want.SL[q]), math.Float64bits(want.Ctot[q]))
			}
		}
		full := st.Sums()
		want := tree.ElmoreSums()
		for i := range want.SR {
			if !bitEq(full.SR[i], want.SR[i]) || !bitEq(full.SL[i], want.SL[i]) || !bitEq(full.Ctot[i], want.Ctot[i]) {
				t.Fatalf("final sums diverge at node %d", i)
			}
		}
	})
}
