package spef

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eedtree/internal/rlctree"
)

// TestTreeErrorsNameFirstOffender: a net with several offenders of one
// kind gets the same error every time, naming the first in file order.
func TestTreeErrorsNameFirstOffender(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"unconnected branches",
			"*RES\n1 a b 1\n2 c d 1\n3 e f 1\n4 g h 1\n",
			`node "c" is not connected to the driver "a"`},
		{"unmatched inducs",
			"*RES\n1 a b 1\n*INDUC\n1 a b 1\n2 d b 1\n3 a e 1\n4 f c 1\n",
			`*INDUC between "b" and "d" has no matching *RES branch`},
		{"unconnected caps",
			"*CAP\n1 b 0.5\n2 y 0.5\n3 x 0.5\n4 z 0.5\n*RES\n1 a b 1\n",
			`capacitance at "y" is not connected to the driver`},
	}
	for _, c := range cases {
		f, err := ParseString("*D_NET n 1\n*CONN\n*I a O\n" + c.body + "*END\n")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < 50; i++ {
			_, err := f.Nets[0].Tree(DefaultUnits)
			if err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Fatalf("%s: call %d: err = %v, want one ending %q", c.name, i, err, c.want)
			}
		}
	}
}

// chipNet parses one random net of k sections written as chipflow writes
// them: a *RES, an *INDUC and a *CAP per branch, in node order.
func chipNet(tb testing.TB, k int) (*Net, Units) {
	tb.Helper()
	f, err := ParseString("*L_UNIT 1 NH\n" + randomNetText(rand.New(rand.NewSource(int64(k))), "n", k, false))
	if err != nil {
		tb.Fatal(err)
	}
	return f.Nets[0], f.Units
}

// TestNetTreeAllocBudget: building a net's tree costs a constant number
// of allocations, whatever its size.
func TestNetTreeAllocBudget(t *testing.T) {
	for _, k := range []int{1, 50, 1000} {
		n, units := chipNet(t, k)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := n.Tree(units); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("Net.Tree of %d sections: %.0f allocations, budget 40", k, allocs)
		}
	}
}

var treeSink *rlctree.Tree

func BenchmarkNetTree(b *testing.B) {
	for _, k := range []int{50, 1000} {
		n, units := chipNet(b, k)
		b.Run(fmt.Sprintf("sections=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := n.Tree(units)
				if err != nil {
					b.Fatal(err)
				}
				treeSink = t
			}
		})
	}
}
