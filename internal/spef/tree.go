package spef

import (
	"fmt"
	"slices"
	"sort"

	"eedtree/internal/rlctree"
)

// Tree converts a parsed net to a driver-rooted RLC tree in SI units,
// ready for the equivalent Elmore analysis.
//
// The driver node is the *CONN pin with direction O (or B when no O pin
// exists). Every *RES branch becomes one tree section whose series
// inductance is taken from the *INDUC branch between the same node pair
// (zero when absent); grounded *CAP values attach to the corresponding
// nodes. The parasitic network must be a tree rooted at the driver —
// loops, disconnected nodes, or multiple drivers are reported as errors.
func (n *Net) Tree(units Units) (*rlctree.Tree, error) {
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

// driverPin returns the unique driving pin of the net.
func (n *Net) driverPin() (string, error) {
	var outs, bidis []string
	for _, c := range n.Conns {
		switch c.Dir {
		case DirOutput:
			outs = append(outs, c.Pin)
		case DirBidir:
			bidis = append(bidis, c.Pin)
		}
	}
	switch {
	case len(outs) == 1:
		return outs[0], nil
	case len(outs) > 1:
		return "", fmt.Errorf("spef: net %q has %d driving pins; RLC trees have a single source", n.Name, len(outs))
	case len(bidis) == 1:
		return bidis[0], nil
	default:
		return "", fmt.Errorf("spef: net %q has no driving pin (*CONN direction O)", n.Name)
	}
}

func pairKey(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}
