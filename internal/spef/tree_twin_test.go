package spef

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"eedtree/internal/rlctree"
)

// treeTwin is the reference implementation of Net.Tree: the original
// map-based build, four string-keyed maps, a sort.Slice at every BFS node
// and one AddSection per branch. Its unmatched-*INDUC, unconnected-node
// and unconnected-cap checks range over maps, so with several offenders it
// names a random one. TestNetTreeMatchesTwin and FuzzNetTree hold the flat
// build to it.
func (n *Net) treeTwin(units Units) (*rlctree.Tree, error) {
	if units.R == 0 || units.C == 0 || units.L == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	driver, err := n.driverPin()
	if err != nil {
		return nil, err
	}
	// Adjacency over resistor branches; inductance by node pair.
	type edge struct {
		other string
		r, l  float64
	}
	induc := map[[2]string]float64{}
	for _, b := range n.Inducs {
		induc[pairKey(b.A, b.B)] += b.Value
	}
	adj := map[string][]edge{}
	for i, b := range n.Ress {
		if b.A == b.B {
			return nil, fmt.Errorf("spef: net %q: resistor %d is a self-loop at %q", n.Name, i+1, b.A)
		}
		l := induc[pairKey(b.A, b.B)]
		adj[b.A] = append(adj[b.A], edge{b.B, b.Value, l})
		adj[b.B] = append(adj[b.B], edge{b.A, b.Value, l})
	}
	// Every inductor pair must lie on a resistor branch. Scanning the
	// shorter of the two adjacency lists keeps the check linear on a
	// tree: each branch is looked up from its lower-degree end.
	for key := range induc {
		a, b := key[0], key[1]
		if len(adj[a]) > len(adj[b]) {
			a, b = b, a
		}
		if !slices.ContainsFunc(adj[a], func(e edge) bool { return e.other == b }) {
			return nil, fmt.Errorf("spef: net %q: *INDUC between %q and %q has no matching *RES branch", n.Name, key[0], key[1])
		}
	}
	caps := map[string]float64{}
	for _, c := range n.Caps {
		caps[c.Node] += c.Value
	}
	if len(adj) == 0 && len(caps) == 0 {
		return nil, fmt.Errorf("spef: net %q has no parasitics", n.Name)
	}

	t := rlctree.New()
	// Capacitance directly at the driver node: attach through an ideal
	// junction so totals are preserved (it does not affect the response of
	// an ideally driven tree).
	if c, ok := caps[driver]; ok && c > 0 {
		if _, err := t.AddSection(driver+"(drv)", nil, 0, 0, c*units.C); err != nil {
			return nil, err
		}
	}
	// BFS from the driver, creating one section per traversed branch.
	visited := map[string]bool{driver: true}
	type frontier struct {
		node    string
		section *rlctree.Section
	}
	queue := []frontier{{driver, nil}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		edges := adj[cur.node]
		// Deterministic order for reproducible trees.
		sort.Slice(edges, func(i, j int) bool { return edges[i].other < edges[j].other })
		for _, e := range edges {
			if visited[e.other] {
				continue
			}
			visited[e.other] = true
			s, err := t.AddSection(e.other, cur.section, e.r*units.R, e.l*units.L, caps[e.other]*units.C)
			if err != nil {
				return nil, err
			}
			queue = append(queue, frontier{e.other, s})
		}
	}
	for node := range adj {
		if !visited[node] {
			return nil, fmt.Errorf("spef: net %q: node %q is not connected to the driver %q", n.Name, node, driver)
		}
	}
	for node := range caps {
		if node != driver && !visited[node] {
			return nil, fmt.Errorf("spef: net %q: capacitance at %q is not connected to the driver", n.Name, node)
		}
	}
	// A tree over |visited| nodes has exactly |visited|−1 resistive
	// branches; more means a resistive loop (including parallel branches).
	if len(n.Ress) != len(visited)-1 {
		return nil, fmt.Errorf("spef: net %q is not a tree: %d resistive branches over %d nodes",
			n.Name, len(n.Ress), len(visited))
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("spef: net %q produced an empty tree", n.Name)
	}
	return t, nil
}

// treeErrorNets holds one net per Net.Tree error, in the order the checks
// run, with a fragment of the message it must give. Each has one offender
// except the unconnected node: a branch cut off from the driver leaves
// both its ends unconnected.
var treeErrorNets = []struct{ name, text, want string }{
	{"invalid units", "*R_UNIT 0 OHM\n*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n*END\n", "invalid units"},
	{"no driver", "*D_NET n 1\n*CONN\n*I a I\n*RES\n1 a b 1\n*END\n", "no driving pin"},
	{"two drivers", "*D_NET n 1\n*CONN\n*I a O\n*I b O\n*RES\n1 a b 1\n*END\n", "2 driving pins"},
	{"self-loop", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n2 b b 1\n*END\n", `resistor 2 is a self-loop at "b"`},
	{"unmatched induc", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n*INDUC\n1 a b 1\n2 c b 1\n*END\n", `*INDUC between "b" and "c"`},
	{"no parasitics", "*D_NET n 1\n*CONN\n*I a B\n*END\n", "no parasitics"},
	{"negative R", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n2 b c -1\n*END\n", `section "c" has invalid R = -1`},
	{"NaN C", "*D_NET n 1\n*CONN\n*I a O\n*CAP\n1 c NaN\n*RES\n1 a b 1\n2 b c 1\n*END\n", `section "c" has invalid C = NaN`},
	{"infinite L", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n*INDUC\n1 b a 1e308\n2 a b 1e308\n*END\n", `section "b" has invalid L = +Inf`},
	{"junction name taken", "*D_NET n 1\n*CONN\n*I a O\n*CAP\n1 a 0.5\n*RES\n1 a a(drv) 1\n*END\n", `duplicate section name "a(drv)"`},
	{"unconnected node", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n2 c b 1\n3 d e 1\n*END\n", `node "d" is not connected`},
	{"unconnected cap", "*D_NET n 1\n*CONN\n*I a O\n*CAP\n1 b 0.5\n2 z 0.5\n*RES\n1 a b 1\n*END\n", `capacitance at "z"`},
	{"loop", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n2 b c 1\n3 c a 1\n*END\n", "not a tree: 3 resistive branches over 3 nodes"},
	{"parallel branches", "*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b 1\n2 b a 2\n*END\n", "not a tree: 2 resistive branches over 2 nodes"},
	{"empty tree", "*D_NET n 1\n*CONN\n*I a O\n*CAP\n1 a 0\n*END\n", "empty tree"},
}

// compareWithTwin builds n with Net.Tree and with treeTwin and returns ""
// when they agree: equal fingerprints, or both failing with the same
// message wherever the twin names its only possible offender.
func compareWithTwin(n *Net, units Units) string {
	got, gerr := n.Tree(units)
	want, werr := n.treeTwin(units)
	switch {
	case gerr == nil && werr == nil:
		if got.Fingerprint() != want.Fingerprint() {
			return fmt.Sprintf("net %q: trees differ\nflat:\n%s\ntwin:\n%s", n.Name, got.Format(), want.Format())
		}
	case gerr == nil || werr == nil:
		return fmt.Sprintf("net %q: flat err=%v, twin err=%v", n.Name, gerr, werr)
	case gerr.Error() != werr.Error() && twinChoices(n, werr) <= 1:
		return fmt.Sprintf("net %q: flat err=%v\ntwin err=%v", n.Name, gerr, werr)
	}
	return ""
}

// twinChoices counts the offenders treeTwin could have named in err. Its
// unmatched-*INDUC, unconnected-node and unconnected-cap checks range over
// maps and name a random one of several; and sort.Slice orders more than
// 12 half-edges unstably, so at such a node parallel branches (whose net
// fails) may be taken in either order. Every other error has one.
func twinChoices(n *Net, err error) int {
	driver, derr := n.driverPin()
	if derr != nil {
		return 1
	}
	adj := map[string][]string{}
	for _, b := range n.Ress {
		adj[b.A] = append(adj[b.A], b.B)
		adj[b.B] = append(adj[b.B], b.A)
	}
	for _, nbrs := range adj {
		if len(nbrs) > 12 && len(nbrs) != len(setOf(nbrs)) {
			return 2
		}
	}
	reached := map[string]bool{driver: true}
	for queue := []string{driver}; len(queue) > 0; queue = queue[1:] {
		for _, v := range adj[queue[0]] {
			if !reached[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	var offenders []string
	prefix := fmt.Sprintf("spef: net %q: ", n.Name)
	msg := err.Error()
	switch {
	case strings.HasPrefix(msg, prefix+"*INDUC between "):
		res := map[[2]string]bool{}
		for _, b := range n.Ress {
			res[pairKey(b.A, b.B)] = true
		}
		for _, b := range n.Inducs {
			if k := pairKey(b.A, b.B); !res[k] {
				offenders = append(offenders, k[0]+"\x00"+k[1])
			}
		}
	case strings.HasPrefix(msg, prefix+"node "):
		for v := range adj {
			if !reached[v] {
				offenders = append(offenders, v)
			}
		}
	case strings.HasPrefix(msg, prefix+"capacitance at "):
		for _, c := range n.Caps {
			if !reached[c.Node] {
				offenders = append(offenders, c.Node)
			}
		}
	default:
		return 1
	}
	return len(setOf(offenders))
}

func setOf(xs []string) map[string]bool {
	set := make(map[string]bool, len(xs))
	for _, x := range xs {
		set[x] = true
	}
	return set
}

// randomNetText writes one *D_NET of k sections over random parents:
// node i hangs off a uniformly chosen earlier node, node 0 being the
// driver pin. Every node but the driver carries a *CAP and every branch a
// *RES and an *INDUC. As chipflow writes its nets, each section lists
// them in node order, parent first; with shuffle, each section lists them
// in its own random order, each branch in a random orientation. Values
// span chipflow's synthetic ranges in pF, Ω and nH.
func randomNetText(rng *rand.Rand, name string, k int, shuffle bool) string {
	node := func(i int) string {
		if i == 0 {
			return "drv:Z"
		}
		return fmt.Sprintf("%s:%d", name, i)
	}
	parent := make([]int, k+1)
	for i := 1; i <= k; i++ {
		parent[i] = rng.Intn(i)
	}
	order := func() []int {
		if shuffle {
			return rng.Perm(k)
		}
		o := make([]int, k)
		for i := range o {
			o[i] = i
		}
		return o
	}
	var b strings.Builder
	fmt.Fprintf(&b, "*D_NET %s 1\n*CONN\n*I %s O\n*I %s I\n*CAP\n", name, node(0), node(k))
	for j, i := range order() {
		fmt.Fprintf(&b, "%d %s %.6g\n", j+1, node(i+1), 0.005+0.05*rng.Float64())
	}
	for _, sec := range [...]struct {
		head       string
		base, span float64
	}{{"*RES", 1, 40}, {"*INDUC", 0.05, 0.5}} {
		fmt.Fprintf(&b, "%s\n", sec.head)
		for j, i := range order() {
			a, z := node(parent[i+1]), node(i+1)
			if shuffle && rng.Intn(2) == 0 {
				a, z = z, a
			}
			fmt.Fprintf(&b, "%d %s %s %.6g\n", j+1, a, z, sec.base+sec.span*rng.Float64())
		}
	}
	b.WriteString("*END\n")
	return b.String()
}

// randomDesign is a SPEF file of nets random nets of 1–99 sections,
// every other one listed in shuffled order.
func randomDesign(seed int64, nets int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("*SPEF \"IEEE 1481-1998\"\n*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n*L_UNIT 1 NH\n")
	for i := range nets {
		b.WriteString(randomNetText(rng, fmt.Sprintf("n%d", i), 1+rng.Intn(99), i%2 == 1))
	}
	return b.String()
}

// TestNetTreeMatchesTwin: on every net of the package's fixtures and of a
// seeded random design, the flat Net.Tree and its map-based twin build
// the same tree, or fail with the same message.
func TestNetTreeMatchesTwin(t *testing.T) {
	for _, c := range treeErrorNets {
		f, err := ParseString(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := f.Nets[0].Tree(f.Units); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	inputs := append([]string{randomDesign(1, 300)}, streamSeeds...)
	for _, c := range treeErrorNets {
		inputs = append(inputs, c.text)
	}
	var built, failed int
	for _, in := range inputs {
		f, err := ParseString(in)
		if err != nil {
			continue
		}
		for _, n := range f.Nets {
			if msg := compareWithTwin(n, f.Units); msg != "" {
				t.Error(msg)
			}
			if _, err := n.Tree(f.Units); err != nil {
				failed++
			} else {
				built++
			}
		}
	}
	if built < 300 || failed < len(treeErrorNets) {
		t.Fatalf("compared %d built and %d failing nets, want ≥ 300 and ≥ %d", built, failed, len(treeErrorNets))
	}
}
