package incr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/rlctree"
)

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

// requireSumsAtBitEqual checks the state's sums at node q against a
// from-scratch ElmoreSums of its tree.
func requireSumsAtBitEqual(t *testing.T, st *State, want rlctree.Sums, q int, context string) {
	t.Helper()
	sr, sl, ctot, err := st.SumsAt(q)
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if !bitEq(sr, want.SR[q]) || !bitEq(sl, want.SL[q]) || !bitEq(ctot, want.Ctot[q]) {
		t.Fatalf("%s: SumsAt(%d) = %x/%x/%x, want %x/%x/%x", context, q,
			math.Float64bits(sr), math.Float64bits(sl), math.Float64bits(ctot),
			math.Float64bits(want.SR[q]), math.Float64bits(want.SL[q]), math.Float64bits(want.Ctot[q]))
	}
}

// TestRandomMixedStructuralBitEquality is the structural correctness
// contract: across ≥1500 interleaved value edits, leaf attaches, subtree
// attaches, detaches and splits, each made through the state, the state
// stays bit-identical to a from-scratch ElmoreSums of its tree — checked
// at a random sink after every op (the lazy O(depth) path) and over the
// whole tree at intervals and at the end.
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
				edit(t, st, idx, rlctree.Elem(rng.Intn(3)), v)
			case 3: // leaf attach
				parent := secs[rng.Intn(len(secs))]
				if _, err := st.AttachLeaf(fmt.Sprintf("t%d_leaf%d", trial, op), parent,
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
				if _, err := st.AttachSubtree(parent, sub); err != nil {
					t.Fatal(err)
				}
			case 5: // detach (never empty the tree)
				if tree.Len() < 3 {
					continue
				}
				sec := secs[1+rng.Intn(len(secs)-1)]
				if sub, err := st.Detach(sec); err != nil {
					t.Fatal(err)
				} else if rng.Intn(2) == 0 {
					pool = append(pool, sub)
				}
			case 6: // split
				sec := secs[rng.Intn(len(secs))]
				if _, err := st.SplitSection(sec, 2+rng.Intn(4)); err != nil {
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
			requireSumsAtBitEqual(t, st, want, rng.Intn(tree.Len()), fmt.Sprintf("trial %d op %d", trial, op))
			if rng.Intn(9) == 0 {
				requireSumsBitEqual(t, stateSums(t, st), want, "full sums after structural op")
			}
		}
		requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "end of trial")
	}
	if totalOps < 1500 {
		t.Fatalf("property test covered only %d ops, want ≥ 1500", totalOps)
	}
	st := func() Stats { // a sanity peek that structural paths actually ran
		tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 8})
		s, _ := New(tree)
		sub, _ := s.Detach(tree.Sections()[4])
		_, _ = s.AttachSubtree(tree.Sections()[0], sub)
		_, _ = s.SplitSection(tree.Sections()[1], 3)
		return s.Stats()
	}()
	if st.Detaches == 0 || st.Attaches == 0 || st.Splits == 0 {
		t.Fatalf("structural stats not counted: %+v", st)
	}
}

// TestStructuralOpsStatsAndErrors covers the defensive paths: ops the
// tree refuses change nothing and count nothing, a detach that would
// empty the tree is refused, k = 1 splits are no-ops, and the counters
// advance once per folded op.
func TestStructuralOpsStatsAndErrors(t *testing.T) {
	tree, err := rlctree.Line("w", 8, rlctree.SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	other, err := rlctree.Line("o", 4, rlctree.SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	gen := tree.Gen()
	// Detaches of a foreign or nil section, and of the only root.
	for _, sec := range []*rlctree.Section{nil, other.Sections()[1], tree.Sections()[0]} {
		if _, err := st.Detach(sec); err == nil {
			t.Fatalf("detach of %v must fail", sec)
		}
	}
	// Splits of a foreign section and into 0, and a no-op k = 1 split.
	if _, err := st.SplitSection(other.Sections()[1], 2); err == nil {
		t.Fatal("split of a foreign section must fail")
	}
	if _, err := st.SplitSection(tree.Sections()[2], 0); err == nil {
		t.Fatal("split into 0 must fail")
	}
	if _, err := st.SplitSection(tree.Sections()[2], 1); err != nil {
		t.Fatalf("k = 1 split must be a no-op: %v", err)
	}
	// Attaches the tree refuses: a duplicate name, a foreign parent, the
	// tree into itself.
	if _, err := st.AttachLeaf(tree.Sections()[1].Name(), nil, 1, 0, 1e-15); err == nil {
		t.Fatal("attach of a duplicate name must fail")
	}
	if _, err := st.AttachLeaf("x", other.Sections()[0], 1, 0, 1e-15); err == nil {
		t.Fatal("attach under a foreign parent must fail")
	}
	if _, err := st.AttachSubtree(nil, tree); err == nil {
		t.Fatal("attach of the tree into itself must fail")
	}
	if got := st.Stats(); got.Attaches != 0 || got.Detaches != 0 || got.Splits != 0 {
		t.Fatalf("failed and no-op ops must not count: %+v", got)
	}
	if tree.Gen() != gen || tree.Len() != 8 {
		t.Fatalf("refused ops changed the tree: generation %d -> %d, %d sections", gen, tree.Gen(), tree.Len())
	}
	requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "after refused ops")

	leaf := tree.Sections()[tree.Len()-1]
	if _, err := st.AttachLeaf("x", leaf, 1, 0, 1e-15); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SplitSection(tree.Sections()[2], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Detach(tree.Section("x")); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Attaches != 1 || got.Detaches != 1 || got.Splits != 1 {
		t.Fatalf("each folded op must count once: %+v", got)
	}
	requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "after folded ops")
}

// FuzzStructuralEdits drives arbitrary interleavings of the state's whole
// edit API — value edits, leaf and subtree attaches, detaches, splits —
// and of edits made on the tree alone, around the state (a capacitance
// edit and a leaf attach), decoded from raw bytes. After every op the
// state must agree with a from-scratch ElmoreSums to the bit; after a
// foreign op that takes the rebuild behind the state's generation check.
// Registered in `make fuzz-smoke`.
func FuzzStructuralEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 3, 100}) // SetR(3) = 100
	f.Add([]byte{0x01, 0, 7})   // AttachLeaf under s0
	f.Add([]byte{0x02, 5})      // Detach s5
	f.Add([]byte{0x03, 2, 3})   // Split s2 into 3
	f.Add([]byte{0x04, 1, 4})   // AttachSubtree(4 sections) under s1
	f.Add([]byte{0x05, 6, 9})   // foreign SetC(s6)
	f.Add([]byte{0x06, 8, 3})   // foreign AttachLeaf as a second root
	f.Add([]byte{0x02, 7, 0x04, 0, 3, 0x02, 1, 0x03, 0, 2, 0x00, 0, 9})
	f.Add([]byte{0x06, 2, 1, 0x05, 4, 2, 0x02, 8, 0x0e, 1, 5, 0x02, 0})
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
			// parent picks a section, or the input node one time in n+1.
			parent := func() *rlctree.Section {
				if i := arg() % (len(secs) + 1); i < len(secs) {
					return secs[i]
				}
				return nil
			}
			switch op % 7 {
			case 0: // value edit
				idx := arg() % len(secs)
				v := float64(arg())
				elem := rlctree.Elem(op / 7 % 3)
				if elem == rlctree.ElemC {
					v *= 1e-15
				}
				edit(t, st, idx, elem, v)
			case 1: // leaf attach
				serial++
				if _, err := st.AttachLeaf(fmt.Sprintf("f%d", serial), parent(),
					1, 0, float64(arg())*1e-15); err != nil {
					t.Fatal(err)
				}
			case 2: // detach (keep at least two sections)
				if tree.Len() < 3 {
					continue
				}
				sec := secs[arg()%len(secs)]
				onlyRoot := sec.Parent() == nil && len(tree.Roots()) == 1
				if _, err := st.Detach(sec); (err != nil) != onlyRoot {
					t.Fatalf("detach of %q (only root %v): %v", sec.Name(), onlyRoot, err)
				}
			case 3: // split
				sec := secs[arg()%len(secs)]
				if _, err := st.SplitSection(sec, 2+arg()%3); err != nil {
					// Name collision with an earlier split of the same
					// section is legal input; skip.
					continue
				}
			case 4: // subtree attach
				at := parent()
				serial++
				sub := rlctree.New()
				var prev *rlctree.Section
				for i := 0; i <= arg()%4; i++ {
					prev = sub.MustAddSection(fmt.Sprintf("g%d_%d", serial, i), prev,
						1, 1e-10, 2e-15)
				}
				if _, err := st.AttachSubtree(at, sub); err != nil {
					t.Fatal(err)
				}
			case 5: // foreign capacitance edit, on the tree alone
				if err := secs[arg()%len(secs)].SetC(float64(arg()) * 1e-15); err != nil {
					t.Fatal(err)
				}
			default: // foreign leaf attach, on the tree alone
				serial++
				if _, err := tree.AttachLeaf(fmt.Sprintf("h%d", serial), parent(),
					1, 1e-10, float64(arg())*1e-15); err != nil {
					t.Fatal(err)
				}
			}
			requireSumsAtBitEqual(t, st, tree.ElmoreSums(), (serial+tree.Len())%tree.Len(),
				fmt.Sprintf("after op %d", op%7))
		}
		requireSumsBitEqual(t, stateSums(t, st), tree.ElmoreSums(), "final sums")
	})
}
