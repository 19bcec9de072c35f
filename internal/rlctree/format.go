package rlctree

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"eedtree/internal/guard"
	"eedtree/internal/unit"
)

// This file implements a compact line-oriented text format for RLC trees:
//
//	# comment
//	<name> <parent|-> <R> <L> <C>
//
// Sections must appear parent-before-child; "-" attaches a section to the
// input node. Values accept SPICE engineering suffixes ("25", "1n", "20f").
// The format round-trips through Parse and WriteTo.

// parseOp names this parser in typed errors.
const parseOp = "rlctree.Parse"

// Parse reads a tree from the text format above under
// guard.DefaultLimits. Errors carry the guard taxonomy (guard.ErrParse
// for syntax, guard.ErrTopology for structural faults, guard.ErrLimit for
// oversized input) with the offending line number.
func Parse(r io.Reader) (*Tree, error) {
	return ParseLimits(r, guard.Limits{})
}

// ParseLimits is Parse under explicit input limits (zero fields mean the
// defaults): MaxLineBytes bounds line length and MaxSections the number
// of tree sections.
//
// It is a bulk build, as FromParents is: a line is split in place, its
// parent found in the tree's own name map and its values read without
// copying them, so that the only allocation of its own a line makes is
// the name its section keeps; the rest is the growth of the name map and
// of the chunks the lines wait in. A parsed tree is at generation 1.
func ParseLimits(r io.Reader, lim guard.Limits) (*Tree, error) {
	lim = lim.WithDefaults()
	t := New()
	var lines lineChunks
	sc := lim.NewScanner(r)
	lineNo := 0
	var f [5][]byte
	for sc.Scan() {
		lineNo++
		nf := splitFields(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		if nf != 5 {
			return nil, guard.Newf(guard.ErrParse, parseOp,
				"want 5 fields (name parent R L C), got %d", nf).WithLine(lineNo)
		}
		var parent *Section
		p := int32(-1)
		if string(f[1]) != "-" {
			if parent = t.byName[string(f[1])]; parent == nil {
				return nil, guard.Newf(guard.ErrTopology, parseOp,
					"unknown parent %q (parents must be declared first)", string(f[1])).WithLine(lineNo)
			}
			p = int32(parent.index)
		}
		var vals [3]float64
		for i, field := range f[2:] {
			v, err := unit.Parse(string(field))
			if err != nil {
				return nil, guard.New(guard.ErrParse, parseOp, err).WithLine(lineNo)
			}
			vals[i] = v
		}
		s, v := lines.next()
		if err := t.admit(s, lines.n-1, string(f[0]), p, vals[0], vals[1], vals[2]); err != nil {
			return nil, guard.New(guard.ErrTopology, parseOp, err).WithLine(lineNo)
		}
		s.parent = parent
		*v = lineValues{vals[0], vals[1], vals[2], p}
		if err := guard.CheckCount(parseOp, "section", lines.n, lim.MaxSections); err != nil {
			return nil, err
		}
	}
	if err := lim.ScanError(parseOp, lineNo, sc.Err()); err != nil {
		return nil, err
	}
	if lines.n == 0 {
		return nil, guard.Newf(guard.ErrTopology, parseOp, "input describes no sections")
	}
	lines.fill(t)
	t.link()
	return t, nil
}

// lineChunks keeps the lines of ParseLimits until the input ends: each
// line's Section, which the tree keeps, and its values, which are copied
// into the tree's arrays once they can be made at their final length
// (growing five arrays line by line would allocate several times their
// size). Chunks start at minChunk lines and double up to maxChunk (1024
// Sections are 64 KiB); fill trims the last one, so a parsed tree keeps
// fewer than minChunk empty Sections.
type lineChunks struct {
	chunks []lineChunk
	n      int
}

// lineChunk holds the Sections and values of up to cap(secs) lines.
type lineChunk struct {
	secs []Section
	vals []lineValues
}

// lineValues holds one line's element values and parent index.
type lineValues struct {
	r, l, c float64
	parent  int32
}

const minChunk, maxChunk = 8, 1024

// next returns the Section and the values of line n, and counts it.
func (lc *lineChunks) next() (*Section, *lineValues) {
	k := len(lc.chunks) - 1
	if k < 0 || len(lc.chunks[k].secs) == cap(lc.chunks[k].secs) {
		size := minChunk
		if k >= 0 {
			size = min(2*cap(lc.chunks[k].secs), maxChunk)
		}
		lc.chunks = append(lc.chunks, lineChunk{make([]Section, 0, size), make([]lineValues, 0, size)})
		k++
	}
	ch := &lc.chunks[k]
	j := len(ch.secs)
	ch.secs, ch.vals = ch.secs[:j+1], ch.vals[:j+1]
	lc.n++
	return &ch.secs[j], &ch.vals[j]
}

// fill gives t its sections and element arrays, in line order. First,
// if the last chunk has minChunk or more Sections unused, which can be
// nearly half of all of them, its lines' Sections move to a slab of their
// own length, and the name map and the parents that pointed into the
// chunk follow them. Children are not linked yet.
func (lc *lineChunks) fill(t *Tree) {
	if last := &lc.chunks[len(lc.chunks)-1]; cap(last.secs)-len(last.secs) >= minChunk {
		base := lc.n - len(last.secs)
		secs := make([]Section, len(last.secs))
		copy(secs, last.secs)
		for j, v := range last.vals {
			s := &secs[j]
			t.byName[s.name] = s
			if p := int(v.parent); p >= base {
				s.parent = &secs[p-base]
			}
		}
		last.secs = secs
	}
	t.sections = make([]*Section, 0, lc.n)
	t.r = make([]float64, 0, lc.n)
	t.l = make([]float64, 0, lc.n)
	t.c = make([]float64, 0, lc.n)
	t.parentIdx = make([]int32, 0, lc.n)
	for _, ch := range lc.chunks {
		for j, v := range ch.vals {
			t.sections = append(t.sections, &ch.secs[j])
			t.r = append(t.r, v.r)
			t.l = append(t.l, v.l)
			t.c = append(t.c, v.c)
			t.parentIdx = append(t.parentIdx, v.parent)
		}
	}
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space exactly as
// strings.Fields does — the ASCII table above, unicode.IsSpace for a rune
// that starts at a byte of 0x80 or more — without copying: the first
// len(f) fields are stored in f, and the count of all of them is
// returned.
func splitFields(line []byte, f *[5][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		var space bool
		w := 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n++
			start = -1
		case !space && start < 0:
			start = i
		}
		i += w
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}

// WriteTo writes the tree in the text format accepted by Parse.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, s := range t.sections {
		parent := "-"
		if s.parent != nil {
			parent = s.parent.name
		}
		c, err := fmt.Fprintf(w, "%s %s %s %s %s\n",
			s.name, parent, unit.Format(s.R()), unit.Format(s.L()), unit.Format(s.C()))
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Format returns the tree in the text format accepted by Parse.
func (t *Tree) Format() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		// strings.Builder writes cannot fail.
		panic(err)
	}
	return b.String()
}
