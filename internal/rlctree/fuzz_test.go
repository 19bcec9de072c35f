package rlctree

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"eedtree/internal/guard"
)

// FuzzParse drives the tree text parser with arbitrary inputs: no panics,
// the slow twin's tree or the slow twin's error under tight and default
// limits, and accepted trees must round-trip through Format.
func FuzzParse(f *testing.F) {
	f.Add("s1 - 25 5n 50f\ns2 s1 25 5n 50f\n")
	f.Add("# comment\na - 1 0 0\n")
	f.Add("a - 1 1 1\nb a 2 2 2\nc a 3 3 3\n")
	f.Add("x y 1 1 1\n")
	f.Add("")
	// Limit-exercising seeds: an over-long line and a deep chain.
	f.Add("a - 1 1 1 " + strings.Repeat("#", 1<<17) + "\n")
	f.Add(chainSeed(40))
	for _, in := range parseCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		requireSameParse(t, input, guard.Limits{MaxLineBytes: 256, MaxSections: 16})
		requireSameParse(t, input, guard.Limits{})
		// Under guard.Run with tight limits the parser must never panic
		// and every failure must carry a guard class.
		gerr := guard.Run(context.Background(), func(context.Context) error {
			_, err := ParseLimits(strings.NewReader(input),
				guard.Limits{MaxLineBytes: 256, MaxSections: 16})
			return err
		})
		if gerr != nil && guard.Class(gerr) == nil {
			t.Fatalf("limited parse error %v carries no guard class\ninput: %q", gerr, input)
		}
		tr, err := ParseString(input)
		if err != nil {
			return
		}
		back, err := ParseString(tr.Format())
		if err != nil {
			t.Fatalf("accepted tree failed to round-trip: %v\ninput: %q", err, input)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed section count %d → %d", tr.Len(), back.Len())
		}
	})
}

// FuzzElementEdits drives the element-edit API with arbitrary edit streams
// decoded from raw bytes (10 bytes per op: section index, element, raw
// float64 bits — so NaN, ±Inf, negatives, -0 and subnormals all occur).
// Invariants: a rejected edit changes neither the value nor the
// generation; a no-op edit (the value already stored) leaves the
// generation alone; an accepted edit of a new value stores it and bumps
// the generation by exactly one; the generation moves once per accepted
// edit over the whole stream; and element edits never register as a
// structural change.
func FuzzElementEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x24, 0x40}) // s0.R = 10
	f.Add([]byte{3, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) // s3.C = 1
	f.Add([]byte{7, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf}) // s7.L = -1 (rejected)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // s1.R = NaN (rejected)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0x24, 0x40,
		2, 0, 0, 0, 0, 0, 0, 0, 0x24, 0x40}) // repeat write: second is a no-op
	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := ParseString(chainSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		gen0 := tr.Gen()
		accepted := uint64(0)
		for len(input) >= 10 {
			op, rest := input[:10], input[10:]
			input = rest
			sec := tr.Sections()[int(op[0])%tr.Len()]
			elem := Elem(op[1] % 3)
			var bits uint64
			for i, b := range op[2:10] {
				bits |= uint64(b) << (8 * i)
			}
			v := math.Float64frombits(bits)
			var arr []float64
			switch elem {
			case ElemR:
				arr = tr.r
			case ElemL:
				arr = tr.l
			default:
				arr = tr.c
			}
			old := arr[sec.Index()]
			gen := tr.Gen()
			var serr error
			switch elem {
			case ElemR:
				serr = sec.SetR(v)
			case ElemL:
				serr = sec.SetL(v)
			default:
				serr = sec.SetC(v)
			}
			switch {
			case serr != nil:
				if got := arr[sec.Index()]; math.Float64bits(got) != math.Float64bits(old) {
					t.Fatalf("rejected edit changed the value: %g → %g", old, got)
				}
				if tr.Gen() != gen {
					t.Fatal("rejected edit bumped the generation")
				}
			case v == old:
				if tr.Gen() != gen {
					t.Fatal("no-op edit bumped the generation")
				}
			default:
				if arr[sec.Index()] != v {
					t.Fatalf("accepted edit did not store %g", v)
				}
				if tr.Gen() != gen+1 {
					t.Fatalf("accepted edit moved generation %d → %d", gen, tr.Gen())
				}
				accepted++
			}
		}
		if tr.Gen()-gen0 != accepted {
			t.Fatalf("generation moved %d for %d accepted edits", tr.Gen()-gen0, accepted)
		}
		if tr.StructuralSince(gen0) {
			t.Fatal("element edits registered as a structural change")
		}
	})
}

// chainSeed builds a parent-chained tree description n sections long.
func chainSeed(n int) string {
	var b strings.Builder
	prev := "-"
	for i := 0; i < n; i++ {
		name := "s" + strconv.Itoa(i)
		b.WriteString(name + " " + prev + " 1 1n 1f\n")
		prev = name
	}
	return b.String()
}
