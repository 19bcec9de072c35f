package unit

import (
	"math"
	"testing"
)

// FuzzParse: the engineering-notation parser must never panic, must
// only return finite values (or an error) for arbitrary input, and must
// agree with its slow twin on every input: the same bits or the same
// error text.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		requireSameAsTwin(t, input)
		v, err := Parse(input)
		if err != nil {
			return
		}
		if math.IsNaN(v) {
			t.Fatalf("Parse(%q) returned NaN without error", input)
		}
	})
}

// FuzzFormatRoundTrip: Format output must parse back to the exact bits
// of every finite value — the bit-identity contract that lets clients
// re-register a formatted tree and keep the same content fingerprint.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, v := range []float64{0, 1, 25e-9, -4.7e3, 1e-15, 9.999e11,
		math.Copysign(0, -1), 2.5e-8, 1.0000000000000002e-14, 5e-324, math.MaxFloat64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		s := Format(v)
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Format(%g) = %q not parseable: %v", v, s, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("round trip not bit-exact: %v (bits %#x) → %q → %v (bits %#x)",
				v, math.Float64bits(v), s, got, math.Float64bits(got))
		}
	})
}
