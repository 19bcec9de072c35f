package rlctree

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"eedtree/internal/guard"
)

// requireSameParse fails unless ParseLimits and its slow twin, under lim,
// return the same tree — length, fingerprint, names and children — or
// the same error: class, message and line.
func requireSameParse(t *testing.T, input string, lim guard.Limits) {
	t.Helper()
	got, gotErr := ParseLimits(strings.NewReader(input), lim)
	want, wantErr := parseLimitsSlow(strings.NewReader(input), lim)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseLimits err = %v, twin err = %v\ninput: %q", gotErr, wantErr, input)
	}
	if wantErr != nil {
		var g, w *guard.Error
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
			t.Fatalf("errors %v / %v are not guard errors", gotErr, wantErr)
		}
		if g.Class != w.Class || g.Line != w.Line || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseLimits err = %v (line %d), twin err = %v (line %d)\ninput: %q",
				gotErr, g.Line, wantErr, w.Line, input)
		}
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("ParseLimits read %d sections, twin %d\ninput: %q", got.Len(), want.Len(), input)
	}
	for i, s := range want.Sections() {
		if g := got.Sections()[i].Name(); g != s.Name() {
			t.Fatalf("section %d named %q, twin %q", i, g, s.Name())
		}
	}
	sameTopology(t, got, want)
	checkTreeInvariants(t, got)
	if got.Gen() != 1 || !got.StructuralSince(0) {
		t.Fatalf("parsed tree at generation %d, want one structural bump", got.Gen())
	}
}

// parseCases: well-formed trees and one input per error, including inputs
// with two faults, where the error that comes first must win.
var parseCases = []string{
	"s1 - 25 5n 50f\ns2 s1 25 5n 50f\n",
	"# comment\n  # indented comment\n\na - 1 0 0\n",
	"a - 1 1 1\nb a 2 2 2\nc a 3 3 3\nd b 4 4 4\ne - 5 5 5\n",
	"a\t-\t1\t1\t1\r\nb a 1E3 1e-9 10pF\n",
	"- - 1 1 1\nb - 1 1 1\n",       // a section named "-"; "-" still means the input
	"a - 1 1 1 #x\n",               // a '#' past the first field is a sixth field
	"a -#x 1 1 1\n",                // and in the parent field an unknown parent
	"a\u00a0-\u00a01 1 1\n",        // NBSP is white space to strings.Fields
	"a -\u2003\u30001 1 1\u0085\n", // so are EM SPACE, IDEOGRAPHIC SPACE and NEL
	"\u2003# comment after a non-ASCII space\n",
	"é - 1 1 1\nü é 2 2 2\n",                        // non-ASCII names
	"a\xff - 1 1 1\n\xfe a\xff 1 1 1\n",             // invalid UTF-8 is not white space
	"",                                              // no sections
	"# only a comment\n\n   \n ",                    // no sections either
	"a - 1 1",                                       // too few fields
	"a - 1 1 1 1 1 1 1",                             // too many fields
	"a b 1 1 1",                                     // unknown parent
	"a b 1 1 bogus",                                 // unknown parent before a bad value
	"a - 1 bogus 1",                                 // bad value
	"a - 1 1 bogus\na - 1 1 1",                      // bad value on line 1
	"a - 1 1 1\na - 1 1 x",                          // bad value before a duplicate name
	"a - 1 1 1\na - -1 1 1",                         // duplicate name before an invalid value
	"a - -5 1 1",                                    // negative element
	"a - 1 1 nan",                                   // no numeric prefix
	"a - 1e400 1 1",                                 // out of range
	"a - 1 1 1\nb a 1 1 1\nc b 1 1 1\nd c 1 1 1\n",  // over a limit of 3 sections
	"a - 1 1 1\nb a 1 1 1\nc b 1 1 1\nb c -1 1 1\n", // an invalid line before the limit
	"a - 1 1 1\n" + strings.Repeat("x", 100) + "\n", // over a 64-byte line limit
}

func TestParseMatchesTwin(t *testing.T) {
	for _, lim := range []guard.Limits{{}, {MaxLineBytes: 64, MaxSections: 3}} {
		for _, in := range parseCases {
			requireSameParse(t, in, lim)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 50, 1000} {
		requireSameParse(t, Random(rng, RandomSpec{Sections: n}).Format(), guard.Limits{})
		requireSameParse(t, randomTree(rng, n).Format(), guard.Limits{})
	}
}

// TestParseReadErrors: a reader's failure is reported as the twin
// reports it, ahead of "input describes no sections": a plain read error
// as a parse error, a canceled read as canceled.
func TestParseReadErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		cause, class error
	}{
		{io.ErrUnexpectedEOF, guard.ErrParse},
		{guard.Check(ctx), guard.ErrCanceled},
	} {
		for _, prefix := range []string{"", "a - 1 1 1\n"} {
			failing := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(c.cause)) }
			_, got := ParseLimits(failing(), guard.Limits{})
			_, want := parseLimitsSlow(failing(), guard.Limits{})
			if got == nil || got.Error() != want.Error() {
				t.Errorf("read failing with %v after %q: err = %v, twin %v", c.cause, prefix, got, want)
			}
			if !errors.Is(got, c.cause) || guard.Class(got) != c.class {
				t.Errorf("read failing with %v after %q: err = %v, want class %v", c.cause, prefix, got, c.class)
			}
		}
	}
}

// TestParsedTreeAttachLeafKeepsSiblings: a parsed tree's children slices
// are windows of one shared array, as a FromParents tree's are, so an
// AttachLeaf under one section must not write into its sibling's window.
// Then a random run of structural edits on a parsed tree and on the slow
// twin's tree keeps the two equal.
func TestParsedTreeAttachLeafKeepsSiblings(t *testing.T) {
	tr, err := ParseString("a - 1 0 1\nb a 1 0 1\nc a 1 0 1\nd b 1 0 1\ne b 1 0 1\nf c 1 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	requireAttachKeepsSiblings(t, tr)

	rng := rand.New(rand.NewSource(7))
	text := randomTree(rng, 40).Format()
	ref, err := parseLimitsSlow(strings.NewReader(text), guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	editInStep(t, ref, fast, rng)
}

// parseCost returns the allocations and bytes one ParseLimits of text
// makes, averaged over runs, on one P as testing.AllocsPerRun measures.
func parseCost(t *testing.T, text []byte, runs int) (allocs, bytesPerParse float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parse := func() {
		if _, err := ParseLimits(bytes.NewReader(text), guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	parse() // warm up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestParseAllocBudget: a line allocates only the name its section keeps,
// so a big tree costs about one allocation per section; the rest is the
// growth of the name map and the chunks, and the tree's arrays, made once.
// The scanner's first buffer is sized to a short reader: the small cases
// must not pay for a 64 KiB buffer, which would fail their budgets.
func TestParseAllocBudget(t *testing.T) {
	for _, c := range []struct {
		sections, runs    int
		allocs, bytesEach float64 // per section
	}{
		{1, 20, 16, 2000},
		{50, 20, 1.6, 400},
		{16384, 3, 1.05, 380},
	} {
		text := []byte(Random(rand.New(rand.NewSource(1)), RandomSpec{Sections: c.sections}).Format())
		allocs, size := parseCost(t, text, c.runs)
		n := float64(c.sections)
		t.Logf("%d sections: %.2f allocations and %.0f B per section", c.sections, allocs/n, size/n)
		if allocs/n > c.allocs || size/n > c.bytesEach {
			t.Errorf("%d sections: %.2f allocations and %.0f B per section, budget %.2f and %.0f",
				c.sections, allocs/n, size/n, c.allocs, c.bytesEach)
		}
	}
}

// TestParsedTreeResidentBytes: fill trims the last chunk, so a tree of
// the sizes eedd keeps resident holds about what a big tree holds per
// section: 158–183 B here, 171–197 B under -race. The budget fails a
// last chunk kept with its empty tail (223–239 B per section at 16, 505
// and 1024 sections) and a Section allocated per line (230–253 B).
func TestParsedTreeResidentBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, n := range []int{16, 100, 505, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		texts := make([][]byte, 40000/n)
		for i := range texts {
			texts[i] = []byte(Random(rng, RandomSpec{Sections: n}).Format())
		}
		trees := make([]*Tree, len(texts))
		before := heap()
		for i, text := range texts {
			tr, err := ParseLimits(bytes.NewReader(text), guard.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
		}
		each := float64(heap()-before) / float64(len(trees)*n)
		runtime.KeepAlive(texts)
		runtime.KeepAlive(trees)
		t.Logf("%d sections: %.0f B per section resident", n, each)
		if each > 215 {
			t.Errorf("%d sections: %.0f B per section resident, budget 215", n, each)
		}
	}
}

var parseSink *Tree

func BenchmarkParse(b *testing.B) {
	text := []byte(Random(rand.New(rand.NewSource(1)), RandomSpec{Sections: 16384}).Format())
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := ParseLimits(bytes.NewReader(text), guard.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		parseSink = t
	}
}
