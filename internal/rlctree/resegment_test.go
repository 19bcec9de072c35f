package rlctree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Resegment returns a new tree in which every section of t is split into k
// equal RLC subsections (R/k, L/k, C/k each), preserving topology and
// total element values. Finer segmentation models the distributed nature
// of real wires more accurately — lumped-section refinement is exactly how
// the paper's evaluation circuits represent distributed interconnect — at
// the cost of k× the sections.
//
// The final subsection of each original section keeps the original name,
// so probes and analyses addressed by name keep working; intermediate
// subsections are named "<name>~<i>".
func Resegment(t *Tree, k int) (*Tree, error) {
	if k < 1 {
		return nil, fmt.Errorf("rlctree: Resegment requires k ≥ 1, got %d", k)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("rlctree: Resegment of an empty tree")
	}
	out := New()
	// Map from original section index to its final subsection in out.
	tail := make([]*Section, t.Len())
	for _, s := range t.sections {
		parent := (*Section)(nil)
		if p := s.Parent(); p != nil {
			parent = tail[p.Index()]
		}
		r, l, c := s.R()/float64(k), s.L()/float64(k), s.C()/float64(k)
		for i := 1; i <= k; i++ {
			name := s.Name()
			if i < k {
				name = fmt.Sprintf("%s~%d", s.Name(), i)
			}
			sub, err := out.AddSection(name, parent, r, l, c)
			if err != nil {
				return nil, err
			}
			parent = sub
		}
		tail[s.Index()] = parent
	}
	return out, nil
}

func TestResegmentValidation(t *testing.T) {
	tr, _ := Line("w", 3, SectionValues{R: 1, L: 1e-9, C: 1e-15})
	if _, err := Resegment(tr, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := Resegment(New(), 2); err == nil {
		t.Fatal("empty tree must fail")
	}
}

func TestResegmentIdentity(t *testing.T) {
	tr, _ := BalancedUniform(3, 2, SectionValues{R: 10, L: 1e-9, C: 20e-15})
	out, err := Resegment(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != tr.Len() {
		t.Fatalf("k=1 changed section count: %d vs %d", out.Len(), tr.Len())
	}
	for _, s := range tr.Sections() {
		o := out.Section(s.Name())
		if o == nil || o.R() != s.R() || o.L() != s.L() || o.C() != s.C() {
			t.Fatalf("k=1 changed section %s", s.Name())
		}
	}
}

func TestResegmentPreservesTotalsAndNames(t *testing.T) {
	tr, _ := BalancedUniform(3, 2, SectionValues{R: 10, L: 1e-9, C: 20e-15})
	const k = 4
	out, err := Resegment(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != k*tr.Len() {
		t.Fatalf("section count %d, want %d", out.Len(), k*tr.Len())
	}
	if math.Abs(out.TotalCap()-tr.TotalCap()) > 1e-20 {
		t.Fatalf("total C changed: %g vs %g", out.TotalCap(), tr.TotalCap())
	}
	// Every original name still resolves, at the same level boundary.
	for _, s := range tr.Sections() {
		o := out.Section(s.Name())
		if o == nil {
			t.Fatalf("name %s lost", s.Name())
		}
		if o.Level() != k*s.Level() {
			t.Fatalf("section %s at level %d, want %d", s.Name(), o.Level(), k*s.Level())
		}
	}
	// Intermediate names use the ~ convention.
	if out.Section("n1_0~1") == nil {
		t.Fatal("intermediate subsection missing")
	}
	if !strings.Contains(out.Format(), "~") {
		t.Fatal("format should show subsection names")
	}
}

// Property: resegmentation leaves the Elmore S_R and S_L sums at original
// node positions within a factor that shrinks as k grows — and the total
// path resistance exactly unchanged. (S_R itself changes slightly because
// capacitance redistributes along each wire; it must converge as k → ∞.)
func TestResegmentSumsConverge(t *testing.T) {
	tr, _ := Line("w", 2, SectionValues{R: 100, L: 10e-9, C: 200e-15})
	sums1 := tr.ElmoreSums()
	sink := tr.Leaves()[0]
	base := sums1.SR[sink.Index()]

	var prevDiff float64 = math.Inf(1)
	for _, k := range []int{2, 4, 8, 16, 64} {
		out, err := Resegment(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		sums := out.ElmoreSums()
		osink := out.Section(sink.Name())
		sr := sums.SR[osink.Index()]
		diff := math.Abs(sr - distributedLimitSR())
		if diff > prevDiff*1.0001 {
			t.Fatalf("k=%d: S_R distance to distributed limit grew: %g then %g", k, prevDiff, diff)
		}
		prevDiff = diff
		_ = base
	}
}

// distributedLimitSR is the k→∞ limit of the sink Elmore constant of the
// 2-section line above: a distributed RC line of total R=200, C=400f has
// Elmore constant R·C/2 = 4e-11.
func distributedLimitSR() float64 { return 200 * 400e-15 / 2 }

// Property: for random trees, resegmentation preserves totals and leaf
// count.
func TestResegmentRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Random(rng, RandomSpec{Sections: 1 + rng.Intn(20)})
		k := 1 + rng.Intn(4)
		out, err := Resegment(tr, k)
		if err != nil {
			return false
		}
		if out.Len() != k*tr.Len() {
			return false
		}
		if len(out.Leaves()) != len(tr.Leaves()) {
			return false
		}
		return math.Abs(out.TotalCap()-tr.TotalCap()) <= 1e-12*tr.TotalCap()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSpecDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Random(rng, RandomSpec{})
	if tr.Len() != 16 {
		t.Fatalf("default sections = %d, want 16", tr.Len())
	}
	for _, s := range tr.Sections() {
		if s.C() <= 0 {
			t.Fatal("random sections must have positive C")
		}
		if s.R() < 0 || s.L() < 0 {
			t.Fatal("random sections must have non-negative R, L")
		}
	}
}
