package faultinj

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"eedtree/internal/obs"
)

// Spec grammar (the /v1/faults admin body):
//
//	spec   := clause (';' clause)*
//	clause := "seed=" uint64
//	        | point [':' param (',' param)*]
//	param  := "p=" float      fire probability, [0,1]; default 1
//	        | "n=" uint       max fires (0 = unlimited); default 0
//	        | "after=" uint   arrivals skipped before the rule is live; default 0
//	        | "d=" duration   stall duration (srv.stall); default 50ms there
//
// Points are the names in Points(). Whitespace around tokens is ignored;
// a point without params fires on every arrival. Examples:
//
//	srv.stall:p=0.2,d=25ms
//	seed=7;srv.panic:p=0.02,n=5;reg.evict:p=0.01
//
// The canonical rendering is Plan.String: Parse∘String is the identity
// on canonical specs (the fuzz target pins that).

// DefaultStall is the stall duration used when a srv.stall rule gives no d=.
const DefaultStall = 50 * time.Millisecond

// Parse compiles a spec into an activatable Plan. An empty (or
// all-whitespace) spec is an error — deactivation is explicit
// (Deactivate / an empty admin body), not a magic spec value.
func Parse(spec string) (*Plan, error) {
	known := make(map[Point]bool, len(Points()))
	for _, pt := range Points() {
		known[pt] = true
	}
	p := &Plan{Seed: 1, rules: map[Point]*rule{}}
	clauses := 0
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		clauses++
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinj: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		name, params, _ := strings.Cut(clause, ":")
		pt := Point(strings.TrimSpace(name))
		if !known[pt] {
			return nil, fmt.Errorf("faultinj: unknown point %q (want one of %v)", name, Points())
		}
		if p.rules[pt] != nil {
			return nil, fmt.Errorf("faultinj: point %q given twice", pt)
		}
		r := &rule{Rule: Rule{Point: pt, P: 1}, hash: fnv64a(string(pt))}
		if err := parseParams(r, params); err != nil {
			return nil, err
		}
		if pt == SrvStall && r.D == 0 {
			r.D = DefaultStall
		}
		r.counter = obs.Default().Counter(
			obs.Label("eed_faultinj_fired_total", "point", string(pt)),
			"Faults injected, by point.")
		p.rules[pt] = r
		p.order = append(p.order, pt)
	}
	if clauses == 0 {
		return nil, fmt.Errorf("faultinj: empty spec")
	}
	if len(p.order) == 0 {
		return nil, fmt.Errorf("faultinj: spec names no injection point")
	}
	return p, nil
}

func parseParams(r *rule, params string) error {
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("faultinj: %s: bad param %q (want key=value)", r.Point, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 || f != f {
				return fmt.Errorf("faultinj: %s: p=%q outside [0,1]", r.Point, val)
			}
			r.P = f
		case "n":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("faultinj: %s: bad n=%q", r.Point, val)
			}
			r.N = n
		case "after":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("faultinj: %s: bad after=%q", r.Point, val)
			}
			r.After = n
		case "d":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("faultinj: %s: bad d=%q (want a non-negative duration)", r.Point, val)
			}
			r.D = d
		default:
			return fmt.Errorf("faultinj: %s: unknown param %q (want p, n, after or d)", r.Point, key)
		}
	}
	return nil
}
