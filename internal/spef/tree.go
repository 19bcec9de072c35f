package spef

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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
// loops, disconnected nodes, or multiple drivers are reported as errors,
// and an error names the first offender in file order.
//
// The build is one flat pass over dense node ids: the *RES branches form
// a CSR adjacency (an offsets array over one half-edge array), a BFS from
// the driver fills parent, R, L and C arrays, and rlctree.FromParents
// turns them into the tree. Sections come out in BFS order, each node's
// branches taken in neighbour-name order.
func (n *Net) Tree(units Units) (*rlctree.Tree, error) {
	if units.R == 0 || units.C == 0 || units.L == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	driver, err := n.driverPin()
	if err != nil {
		return nil, err
	}
	// Intern node names to dense ids: the driver is 0, then the resistor
	// nodes in file order, then nodes that carry only a capacitance.
	nres := len(n.Ress)
	ids := make(map[string]int32, nres+1)
	names := make([]string, 0, nres+1)
	intern := func(name string) int32 {
		id, ok := ids[name]
		if !ok {
			id = int32(len(names))
			ids[name] = id
			names = append(names, name)
		}
		return id
	}
	intern(driver)
	ends := make([]int32, 2*nres) // branch i joins ends[2i] and ends[2i+1]
	for i, b := range n.Ress {
		if b.A == b.B {
			return nil, fmt.Errorf("spef: net %q: resistor %d is a self-loop at %q", n.Name, i+1, b.A)
		}
		ends[2*i], ends[2*i+1] = intern(b.A), intern(b.B)
	}
	resNodes := len(names)

	// CSR adjacency: node v's half-edges are half[off[v]:off[v+1]], in
	// file order. Count degrees, prefix-sum them into start offsets, fill
	// (each fill advances off[v] to v's end, the start of v+1), then
	// shift the offsets back by one slot.
	off := make([]int32, resNodes+1)
	for _, v := range ends {
		off[v+1]++
	}
	for v := range resNodes {
		off[v+1] += off[v]
	}
	half := make([]halfEdge, 2*nres)
	for i := range nres {
		a, b := ends[2*i], ends[2*i+1]
		half[off[a]] = halfEdge{to: b, branch: int32(i)}
		off[a]++
		half[off[b]] = halfEdge{to: a, branch: int32(i)}
		off[b]++
	}
	copy(off[1:], off[:resNodes])
	off[0] = 0

	// Each *INDUC value adds onto the first *RES branch between its pair,
	// in file order: the same sum, in the same order, for every branch the
	// BFS can take. Scanning the lower-degree end keeps this linear on a
	// tree.
	induc := make([]float64, nres)
	for _, b := range n.Inducs {
		a, okA := ids[b.A]
		z, okZ := ids[b.B]
		e := int32(-1)
		if okA && okZ {
			if off[a+1]-off[a] > off[z+1]-off[z] {
				a, z = z, a
			}
			for _, h := range half[off[a]:off[a+1]] {
				if h.to == z {
					e = h.branch
					break
				}
			}
		}
		if e < 0 {
			key := pairKey(b.A, b.B)
			return nil, fmt.Errorf("spef: net %q: *INDUC between %q and %q has no matching *RES branch", n.Name, key[0], key[1])
		}
		induc[e] += b.Value
	}
	capAt := make([]float64, resNodes, cap(names))
	for _, cp := range n.Caps {
		id := intern(cp.Node)
		if int(id) == len(capAt) {
			capAt = append(capAt, 0)
		}
		capAt[id] += cp.Value
	}
	if nres == 0 && len(n.Caps) == 0 {
		return nil, fmt.Errorf("spef: net %q has no parasitics", n.Name)
	}

	// The sections' arrays. Capacitance directly at the driver node
	// attaches through an ideal junction so totals are preserved (it does
	// not affect the response of an ideally driven tree).
	secNames := make([]string, 0, nres+1)
	parent := make([]int32, 0, nres+1)
	r := make([]float64, 0, nres+1)
	l := make([]float64, 0, nres+1)
	c := make([]float64, 0, nres+1)
	first := 0 // index of the first BFS section
	if cd := capAt[0]; cd > 0 {
		secNames = append(secNames, driver+"(drv)")
		parent = append(parent, -1)
		r, l, c = append(r, 0), append(l, 0), append(c, cd*units.C)
		first = 1
	}
	// BFS from the driver, one section per traversed branch. The section
	// of the node at queue[q] is first+q-1; the driver's is the input.
	visited := make([]bool, len(names))
	visited[0] = true
	queue := make([]int32, 1, nres+1)
	for q := 0; q < len(queue); q++ {
		u := queue[q]
		ps := int32(-1)
		if q > 0 {
			ps = int32(first + q - 1)
		}
		hs := half[off[u]:off[u+1]]
		// Deterministic order for reproducible trees.
		slices.SortFunc(hs, func(x, y halfEdge) int {
			if d := strings.Compare(names[x.to], names[y.to]); d != 0 {
				return d
			}
			return cmp.Compare(x.branch, y.branch)
		})
		for _, h := range hs {
			if visited[h.to] {
				continue
			}
			visited[h.to] = true
			queue = append(queue, h.to)
			secNames = append(secNames, names[h.to])
			parent = append(parent, ps)
			r = append(r, n.Ress[h.branch].Value*units.R)
			l = append(l, induc[h.branch]*units.L)
			c = append(c, capAt[h.to]*units.C)
		}
	}
	t, err := rlctree.FromParents(secNames, parent, r, l, c)
	if err != nil {
		return nil, err
	}
	for v := 1; v < resNodes; v++ {
		if !visited[v] {
			return nil, fmt.Errorf("spef: net %q: node %q is not connected to the driver %q", n.Name, names[v], driver)
		}
	}
	// Every resistor node is reached, so the unreached nodes are those
	// with only a capacitance; the first of them in file order has the
	// first such id.
	if len(names) > resNodes {
		return nil, fmt.Errorf("spef: net %q: capacitance at %q is not connected to the driver", n.Name, names[resNodes])
	}
	// A tree over |visited| nodes has exactly |visited|−1 resistive
	// branches; more means a resistive loop (including parallel branches).
	if nres != len(queue)-1 {
		return nil, fmt.Errorf("spef: net %q is not a tree: %d resistive branches over %d nodes",
			n.Name, nres, len(queue))
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("spef: net %q produced an empty tree", n.Name)
	}
	return t, nil
}

// halfEdge is one end's view of a *RES branch: the node at the far end
// and the branch's index in Net.Ress.
type halfEdge struct{ to, branch int32 }

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
