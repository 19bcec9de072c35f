package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseSlow is Parse as it was before its copy-on-error, when its argument
// escaped through every error: the slow twin FuzzParse and
// TestParseMatchesTwin hold Parse to, bit for bit and error for error.
func parseSlow(s string) (float64, error) {
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
		return 0, fmt.Errorf("unit: %q has no numeric prefix", s)
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("unit: %q: %w", s, err)
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
			return 0, fmt.Errorf("unit: %q has unrecognized suffix %q", s, rest)
		}
	}
	return v, nil
}

// requireSameAsTwin fails unless Parse(s) and parseSlow(s) return the
// same bits or the same error text.
func requireSameAsTwin(t *testing.T, s string) {
	t.Helper()
	got, gotErr := Parse(s)
	want, wantErr := parseSlow(s)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("Parse(%q) = %v, %v; twin %v, %v", s, got, gotErr, want, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q) error %q, twin %q", s, gotErr, wantErr)
		}
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("Parse(%q) = %v (bits %#x), twin %v (bits %#x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// parseSeeds covers every return of Parse: plain decimals, range errors,
// stray signs, suffixes, unit letters, case and surrounding space.
var parseSeeds = []string{
	"10", "4.7k", "0.5MEG", "25n", "10pF", "1e-9", "-3m", "", "k", "1.2.3", "+", "1e",
	"1E5", "1e+5", "1E-05", "-0", "+.5", ".", "1e400", "-1e400", "1e-400", "4.9e-324",
	"1e5e5", "--1", "1+2", "0x10", "1_000", "inf", "NaN", " 42 ", "1.2E+2", "2.5e-08",
	"123.45678901234567", "1E", "1e+", "10ohm", "10xyz", "k10", "1e5k", "1E5MEG",
	"\t7\n", "3 ", "1K",
}

func TestParseMatchesTwin(t *testing.T) {
	for _, s := range parseSeeds {
		requireSameAsTwin(t, s)
	}
}

// TestParseOfBytesAllocatesNothing pins that Parse keeps its argument
// from escaping: converting a lower-case byte slice to call it costs no
// allocation, with or without a suffix.
func TestParseOfBytesAllocatesNothing(t *testing.T) {
	for _, s := range []string{"25", "1.5e-9", "2.5e-08", "25n", "4.7k", "0.5meg", "10pf", "5ohm"} {
		b := []byte(s)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(string(b)); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Parse(string(%q)): %v allocations, want 0", s, got)
		}
	}
}
