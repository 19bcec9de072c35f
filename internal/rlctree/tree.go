// Package rlctree models distributed RLC interconnect trees — the circuit
// family the paper analyzes (Fig. 3, Fig. 5) — and implements the
// recursive O(n) algorithms of the paper's Appendix that make the
// equivalent Elmore delay computable at every node of the tree in time
// linear in the number of branches.
//
// A tree is driven at a single input node by an ideal source. Each Section
// is one RLC segment: a series resistance R and inductance L from its
// parent's node (or the input) to the section's own node, plus a
// capacitance C from that node to ground. Branching is arbitrary; any
// general tree can also be expressed with a binary branching factor by
// inserting zero-impedance sections (paper Appendix, [27], [28]).
package rlctree

import (
	"fmt"
	"math"
	"sync"
)

// Section is one RLC segment of a tree. Sections are created with
// Tree.AddSection or FromParents; their topology (name, parent, index) is
// immutable afterwards, while the element values R, L and C live in the
// owning tree's flat arrays and may be changed through SetR/SetL/SetC (see
// edit.go). The identity of a Section is its tree plus name.
type Section struct {
	name     string
	index    int
	parent   *Section // nil when driven directly by the input node
	children []*Section
	tree     *Tree
}

// Name returns the section's unique name within its tree.
func (s *Section) Name() string { return s.name }

// R returns the series resistance of the section in ohms.
func (s *Section) R() float64 { return s.tree.r[s.index] }

// L returns the series inductance of the section in henries.
func (s *Section) L() float64 { return s.tree.l[s.index] }

// C returns the capacitance from the section's node to ground in farads.
func (s *Section) C() float64 { return s.tree.c[s.index] }

// Index returns the section's stable index within the tree, in insertion
// order. Because a parent must exist before its children can be added,
// ascending index order is always a valid top-down (topological) order.
func (s *Section) Index() int { return s.index }

// Tree returns the tree that owns this section.
func (s *Section) Tree() *Tree { return s.tree }

// Parent returns the upstream section, or nil when the section is attached
// directly to the input node.
func (s *Section) Parent() *Section { return s.parent }

// Children returns the sections driven by this section's node.
// The returned slice must not be modified.
func (s *Section) Children() []*Section { return s.children }

// IsLeaf reports whether the section drives no further sections, i.e. its
// node is a sink of the tree.
func (s *Section) IsLeaf() bool { return len(s.children) == 0 }

// Level returns the section's depth in the tree: 1 for sections attached to
// the input node, increasing toward the sinks.
func (s *Section) Level() int {
	n := 0
	for p := s; p != nil; p = p.parent {
		n++
	}
	return n
}

// Path returns the sections on the path from the input to this section,
// inclusive, in input→section order.
func (s *Section) Path() []*Section {
	var rev []*Section
	for p := s; p != nil; p = p.parent {
		rev = append(rev, p)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (s *Section) String() string {
	parent := "<input>"
	if s.parent != nil {
		parent = s.parent.name
	}
	return fmt.Sprintf("%s(parent=%s R=%g L=%g C=%g)", s.name, parent, s.R(), s.L(), s.C())
}

// Tree is an RLC tree driven at a single input node. The zero value is not
// usable; create trees with New or FromParents.
//
// Element values are stored in flat structure-of-arrays form (r, l, c,
// parentIdx indexed by section index) rather than on the Section structs:
// the O(n) summation sweeps of sums.go and the incremental kernel of
// internal/incr walk these arrays directly with no pointer chasing, and
// Section accessors read through them, so there is a single source of
// truth for every element value.
//
// A Tree is safe for concurrent readers, but mutation (AddSection,
// SetR/SetL/SetC) must not race with any other access.
type Tree struct {
	sections []*Section
	byName   map[string]*Section

	// Flat SoA element arrays, indexed by section index. parentIdx is -1
	// for sections attached to the input node.
	r, l, c   []float64
	parentIdx []int32

	// gen counts every mutation (structural or element edit).
	// lastStructGen is the generation of the most recent structural
	// mutation (resync-cause reporting). fp caches the content fingerprint
	// of generation fpGen.
	gen           uint64
	lastStructGen uint64
	fpMu          sync.Mutex
	fp            Fingerprint
	fpGen         uint64
	fpValid       bool
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{byName: make(map[string]*Section)}
}

// AddSection appends a section named name with series resistance r, series
// inductance l and node capacitance c. parent is the upstream section, or
// nil to attach the section directly to the input node. Element values must
// be non-negative and finite; a zero R and L models an ideal junction
// (used, e.g., to express general branching with a binary factor).
func (t *Tree) AddSection(name string, parent *Section, r, l, c float64) (*Section, error) {
	if name == "" {
		return nil, fmt.Errorf("rlctree: section name must be non-empty")
	}
	if _, dup := t.byName[name]; dup {
		return nil, fmt.Errorf("rlctree: duplicate section name %q", name)
	}
	if parent != nil && parent.tree != t {
		return nil, fmt.Errorf("rlctree: parent section %q belongs to a different tree", parent.name)
	}
	if err := checkValues(name, r, l, c); err != nil {
		return nil, err
	}
	s := &Section{name: name, index: len(t.sections), parent: parent, tree: t}
	pi := int32(-1)
	if parent != nil {
		pi = int32(parent.index)
	}
	t.sections = append(t.sections, s)
	t.byName[name] = s
	t.r = append(t.r, r)
	t.l = append(t.l, l)
	t.c = append(t.c, c)
	t.parentIdx = append(t.parentIdx, pi)
	if parent != nil {
		parent.children = append(parent.children, s)
	}
	t.bumpStructural()
	return s, nil
}

// checkValues rejects a non-finite or negative element value of the
// section named name, checking R, then L, then C.
func checkValues(name string, r, l, c float64) error {
	for _, v := range [...]struct {
		label string
		val   float64
	}{{"R", r}, {"L", l}, {"C", c}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
			return fmt.Errorf("rlctree: section %q has invalid %s = %g", name, v.label, v.val)
		}
	}
	return nil
}

// FromParents builds a whole tree in one pass from flat arrays: section i
// is named names[i], hangs beneath section parent[i] (-1 = the input
// node) and carries r[i], l[i] and c[i]. Every parent index must lie in
// [-1, i), so index order is a top-down order, as AddSection makes it.
// The result equals the tree AddSection builds section by section in
// index order, and the first section AddSection would reject is rejected
// here with the same error; the generation is bumped once.
//
// The tree takes ownership of parent, r, l and c; names is only read.
// Every Section comes from one slab, and every children slice is a capped
// window of one shared array, so a later append under a section
// reallocates instead of writing into a sibling's window.
func FromParents(names []string, parent []int32, r, l, c []float64) (*Tree, error) {
	n := len(names)
	if len(parent) != n || len(r) != n || len(l) != n || len(c) != n {
		return nil, fmt.Errorf("rlctree: FromParents array lengths differ: %d names, %d parents, %d R, %d L, %d C",
			n, len(parent), len(r), len(l), len(c))
	}
	t := &Tree{
		sections:  make([]*Section, n),
		byName:    make(map[string]*Section, n),
		r:         r,
		l:         l,
		c:         c,
		parentIdx: parent,
	}
	slab := make([]Section, n)
	nkids := make([]int32, n) // children per section
	var nonRoots int
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("rlctree: section name must be non-empty")
		}
		s := &slab[i]
		// One hash per name: a duplicate leaves the map a name short.
		if t.byName[name] = s; len(t.byName) != i+1 {
			return nil, fmt.Errorf("rlctree: duplicate section name %q", name)
		}
		p := parent[i]
		if p < -1 || int(p) >= i {
			return nil, fmt.Errorf("rlctree: section %q has parent index %d outside [-1, %d)", name, p, i)
		}
		if err := checkValues(name, r[i], l[i], c[i]); err != nil {
			return nil, err
		}
		s.name, s.index, s.tree = name, i, t
		if p >= 0 {
			s.parent = &slab[p]
			nkids[p]++
			nonRoots++
		}
		t.sections[i] = s
	}
	kids := make([]*Section, nonRoots)
	var off int32
	for i, k := range nkids {
		slab[i].children = kids[off : off : off+k]
		off += k
	}
	for i, p := range parent {
		if p >= 0 {
			slab[p].children = append(slab[p].children, &slab[i])
		}
	}
	t.bumpStructural()
	return t, nil
}

// MustAddSection is AddSection that panics on error, for use in builders
// and tests with known-good arguments.
func (t *Tree) MustAddSection(name string, parent *Section, r, l, c float64) *Section {
	s, err := t.AddSection(name, parent, r, l, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Clone returns a deep copy of the tree: the same sections, names and
// element values, in the same index order.
func (t *Tree) Clone() *Tree {
	out := New()
	for i, s := range t.sections {
		var parent *Section
		if pi := t.parentIdx[i]; pi >= 0 {
			parent = out.sections[pi]
		}
		out.MustAddSection(s.name, parent, t.r[i], t.l[i], t.c[i])
	}
	return out
}

// Len returns the number of sections (branches) in the tree.
func (t *Tree) Len() int { return len(t.sections) }

// Sections returns all sections in insertion (top-down topological) order.
// The returned slice must not be modified.
func (t *Tree) Sections() []*Section { return t.sections }

// Section returns the section with the given name, or nil if absent.
func (t *Tree) Section(name string) *Section { return t.byName[name] }

// Roots returns the sections attached directly to the input node.
func (t *Tree) Roots() []*Section {
	var out []*Section
	for _, s := range t.sections {
		if s.parent == nil {
			out = append(out, s)
		}
	}
	return out
}

// Leaves returns the sink sections in insertion order.
func (t *Tree) Leaves() []*Section {
	var out []*Section
	for _, s := range t.sections {
		if s.IsLeaf() {
			out = append(out, s)
		}
	}
	return out
}

// Depth returns the number of levels in the tree (0 for an empty tree).
func (t *Tree) Depth() int {
	depth := 0
	level := make([]int, len(t.sections))
	for _, s := range t.sections {
		d := 1
		if s.parent != nil {
			d = level[s.parent.index] + 1
		}
		level[s.index] = d
		if d > depth {
			depth = d
		}
	}
	return depth
}

// TotalCap returns the total capacitance of the tree.
func (t *Tree) TotalCap() float64 {
	var sum float64
	for _, c := range t.c {
		sum += c
	}
	return sum
}

// HasInductance reports whether any section has a non-zero inductance.
// Pure RC trees (L = 0 everywhere) degenerate the second-order model to
// the classical Elmore/Wyatt first-order form.
func (t *Tree) HasInductance() bool {
	for _, l := range t.l {
		if l != 0 {
			return true
		}
	}
	return false
}
