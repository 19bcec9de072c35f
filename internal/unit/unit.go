// Package unit parses and formats engineering notation for circuit element
// values, following SPICE conventions: an optional metric suffix scales the
// number (f, p, n, u, m, k, meg, g, t), case-insensitively, and any
// trailing unit letters after the suffix are ignored ("10pF" == "10p").
package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// suffixes in matching order; "meg" must be tested before "m".
var suffixes = []struct {
	name  string
	scale float64
}{
	{"meg", 1e6},
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
	{"a", 1e-18},
}

// Parse converts a SPICE-style value string to a float64.
// Examples: "10", "4.7k", "0.5MEG", "25n", "10pF", "1e-9".
//
// s does not escape: only an error copies it, so a caller holding bytes
// can pass string(b) without allocating for a lower-case field of up to
// 32 bytes.
func Parse(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("unit: empty value")
	}
	// Longest numeric prefix.
	end := 0
	for end < len(s) {
		c := s[end]
		if c >= '0' && c <= '9' || c == '.' || c == '+' || c == '-' {
			end++
			continue
		}
		// Exponent part: 'e' followed by sign or digit.
		if c == 'e' && end+1 < len(s) {
			next := s[end+1]
			if next >= '0' && next <= '9' || next == '+' || next == '-' {
				end += 2
				continue
			}
		}
		break
	}
	if end == 0 {
		return 0, fmt.Errorf("unit: %q has no numeric prefix", strings.Clone(s))
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("unit: %q: %w", strings.Clone(s), err)
	}
	rest := s[end:]
	if rest == "" {
		return v, nil
	}
	for _, suf := range suffixes {
		if strings.HasPrefix(rest, suf.name) {
			return v * suf.scale, nil
		}
	}
	// No metric suffix: tolerate pure unit letters (ohm, F, H, V, s).
	for _, c := range rest {
		if !strings.ContainsRune("ohmfhvs", c) {
			cp := strings.Clone(s)
			return 0, fmt.Errorf("unit: %q has unrecognized suffix %q", cp, cp[end:])
		}
	}
	return v, nil
}

// Format renders v with the metric suffix that leaves a mantissa in
// [1, 1000), e.g. 2.5e-12 → "2.5p", falling back to Go's shortest plain
// form when no suffix fits. Zero formats as "0" ("-0" for negative zero).
//
// Format is bit-exact: Parse(Format(v)) reproduces math.Float64bits(v)
// for every finite v. The mantissa is obtained by shifting the decimal
// point of v's shortest decimal representation — an exact decimal
// operation — but Parse applies suffix scales with a binary multiply,
// which does not round-trip every value (e.g. 25 * 1e-9 is one ulp off
// 2.5e-8); candidates that fail the round trip fall back to
// strconv.FormatFloat(v, 'g', -1, 64), which Parse reads back exactly.
func Format(v float64) string {
	if v == 0 {
		if math.Signbit(v) {
			return "-0"
		}
		return "0"
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	if s, ok := suffixForm(v); ok {
		return s
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// suffixNames maps a power-of-ten exponent (a multiple of 3) to its
// metric suffix.
var suffixNames = map[int]string{
	12: "t", 9: "g", 6: "meg", 3: "k", 0: "",
	-3: "m", -6: "u", -9: "n", -12: "p", -15: "f", -18: "a",
}

// suffixForm renders v as <mantissa><suffix> with the mantissa in
// [1, 1000), verified to reproduce v's exact bits through Parse.
func suffixForm(v float64) (string, bool) {
	s := strconv.FormatFloat(math.Abs(v), 'e', -1, 64)
	ei := strings.IndexByte(s, 'e')
	exp10, err := strconv.Atoi(s[ei+1:])
	if err != nil {
		return "", false
	}
	// Largest multiple of 3 not above exp10, so the shifted mantissa
	// lands in [1, 1000).
	e := exp10 / 3 * 3
	if exp10 < 0 && exp10%3 != 0 {
		e -= 3
	}
	name, ok := suffixNames[e]
	if !ok {
		return "", false
	}
	digits := strings.Replace(s[:ei], ".", "", 1)
	point := 1 + (exp10 - e) // digits left of the decimal point: 1..3
	for len(digits) < point {
		digits += "0"
	}
	out := digits[:point]
	if len(digits) > point {
		out += "." + digits[point:]
	}
	if v < 0 {
		out = "-" + out
	}
	out += name
	if p, err := Parse(out); err != nil || math.Float64bits(p) != math.Float64bits(v) {
		return "", false
	}
	return out, true
}
