package rlctree

import (
	"io"
	"strings"

	"eedtree/internal/guard"
	"eedtree/internal/unit"
)

// This file holds the slow twins of production code: the text parser as
// it was before it became a bulk build, and the sums from their
// definition.

// parseLimitsSlow is ParseLimits as it was before it split lines in place
// and built the tree in bulk: one AddSection per line. FuzzParse and
// TestParseMatchesTwin hold ParseLimits to it, tree for tree and error
// for error.
func parseLimitsSlow(r io.Reader, lim guard.Limits) (*Tree, error) {
	lim = lim.WithDefaults()
	t := New()
	sc := lim.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, guard.Newf(guard.ErrParse, parseOp,
				"want 5 fields (name parent R L C), got %d", len(fields)).WithLine(lineNo)
		}
		name, parentName := fields[0], fields[1]
		var parent *Section
		if parentName != "-" {
			parent = t.Section(parentName)
			if parent == nil {
				return nil, guard.Newf(guard.ErrTopology, parseOp,
					"unknown parent %q (parents must be declared first)", parentName).WithLine(lineNo)
			}
		}
		var vals [3]float64
		for i, f := range fields[2:] {
			v, err := unit.Parse(f)
			if err != nil {
				return nil, guard.New(guard.ErrParse, parseOp, err).WithLine(lineNo)
			}
			vals[i] = v
		}
		if _, err := t.AddSection(name, parent, vals[0], vals[1], vals[2]); err != nil {
			return nil, guard.New(guard.ErrTopology, parseOp, err).WithLine(lineNo)
		}
		if err := guard.CheckCount(parseOp, "section", t.Len(), lim.MaxSections); err != nil {
			return nil, err
		}
	}
	if err := lim.ScanError(parseOp, lineNo, sc.Err()); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, guard.Newf(guard.ErrTopology, parseOp, "input describes no sections")
	}
	return t, nil
}

// commonPath returns the resistance and inductance common to the paths
// from the input to sections a and b: R_ab = Σ_{w ∈ path(a)∩path(b)} R_w
// and likewise L_ab. This is the O(depth) primitive underlying the direct
// definition of the summations, which elmoreSumsBrute sums.
func commonPath(a, b *Section) (r, l float64) {
	onPathA := make(map[*Section]bool)
	for p := a; p != nil; p = p.parent {
		onPathA[p] = true
	}
	for p := b; p != nil; p = p.parent {
		if onPathA[p] {
			r += p.R()
			l += p.L()
		}
	}
	return r, l
}

// elmoreSumsBrute computes the same summations as ElmoreSums directly from
// the definition S_R(i) = Σ_k C_k R_ik in O(n²·depth) time: the slow twin
// that cross-checks the O(n) recursive algorithm and documents the
// definition.
func (t *Tree) elmoreSumsBrute() Sums {
	n := len(t.sections)
	sums := Sums{
		SR:   make([]float64, n),
		SL:   make([]float64, n),
		Ctot: t.DownstreamCaps(),
	}
	for i, si := range t.sections {
		for _, sk := range t.sections {
			r, l := commonPath(si, sk)
			sums.SR[i] += sk.C() * r
			sums.SL[i] += sk.C() * l
		}
	}
	return sums
}
