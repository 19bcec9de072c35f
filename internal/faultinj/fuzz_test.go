package faultinj

import "testing"

// FuzzParseFaultSpec throws hostile specs at the /v1/faults spec
// parser. Invariants: Parse never panics; an accepted spec has at least
// one rule, all probabilities in [0,1], non-negative durations; and the
// canonical rendering is a fixed point — Parse(p.String()).String() ==
// p.String(), so what the admin endpoint echoes back re-parses to the
// same plan.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"srv.stall:p=0.2,d=25ms",
		"seed=7;srv.panic:p=0.02,n=5;reg.evict:p=0.01",
		"sess.numeric",
		"seed=0;reg.evict:after=3",
		"sess.numeric:p=1,n=0",
		"srv.conn_drop : p=0.5 , n=2",
		"seed=18446744073709551615;srv.queue_timeout:p=0.001",
		";;srv.stall;;",
		"srv.stall:p=2", "nope", "seed=", "srv.stall:d=-1s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		rules := p.Rules()
		if len(rules) == 0 {
			t.Fatalf("accepted spec %q has no rules", spec)
		}
		for _, r := range rules {
			if r.P < 0 || r.P > 1 || r.P != r.P {
				t.Fatalf("spec %q: rule %s has p=%v", spec, r.Point, r.P)
			}
			if r.D < 0 {
				t.Fatalf("spec %q: rule %s has d=%v", spec, r.Point, r.D)
			}
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", s, spec, err)
		}
		if got := p2.String(); got != s {
			t.Fatalf("canonical form not a fixed point:\n in %q\nout %q", s, got)
		}
	})
}
