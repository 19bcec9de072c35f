// Package faultinj is the deterministic fault-injection framework the
// resilience suite drives: named injection points compiled into the
// service layers (the HTTP handler spine, the engine registry and its
// sessions) that do nothing until a Plan is activated, then fire —
// panic, stall, drop, evict, degrade — according to seed-driven,
// reproducible per-point schedules.
//
// When no plan is active the per-site cost is one atomic pointer load
// (Fire returns false immediately), so production binaries carry the
// points for free. An armed plan whose rules never fire costs one
// decision per site and no allocation; the engine's
// TestSessionEditPathByteBudget counts both on the session query path.
//
// Determinism. A plan carries a seed; each rule keeps an atomic arrival
// counter, and the fire/skip decision for arrival n is a pure function of
// (seed, point, n) — a splitmix64 draw compared against the rule's
// probability. Two runs that deliver the same per-point arrival sequences
// therefore inject identical fault sequences, which is what lets the
// chaos harness replay a failing soak from its recorded seed.
//
// Activation is process-global (one service per process, like the obs
// registry): plans are armed only through the test-only /v1/faults admin
// endpoint (mounted by eedd -faults-admin), which swaps them at runtime,
// or by tests calling Activate/Deactivate directly. See Parse for the
// spec grammar.
package faultinj

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"eedtree/internal/obs"
)

// Point names one compiled-in injection site.
type Point string

// The injection points. Each constant documents where the site lives and
// what firing does there.
const (
	// SrvPanic panics inside an eedsrv analysis handler: net/http kills
	// the connection, so the client sees a mid-request drop with no
	// response — the crash-shaped fault.
	SrvPanic Point = "srv.panic"
	// SrvStall sleeps the rule's duration inside the handler while
	// holding a worker-pool slot — the slow-response / overload fault.
	SrvStall Point = "srv.stall"
	// SrvQueueTimeout makes the handler answer as if the request's
	// deadline fired while queued: 504, class "canceled", Retry-After set
	// (the pre-execution rejection clients may safely retry).
	SrvQueueTimeout Point = "srv.queue_timeout"
	// SrvConnDrop aborts the handler with http.ErrAbortHandler: the
	// connection closes cleanly mid-request without a stack trace — the
	// network-flake fault.
	SrvConnDrop Point = "srv.conn_drop"
	// RegEvict flushes every resident net from the engine registry on a
	// lookup — the eviction-storm fault; fingerprint holders get 404s and
	// must re-register.
	RegEvict Point = "reg.evict"
	// SessNumeric fails a session query with an injected numeric-classed
	// error — the degraded-kernel fault. The service must serve an honest
	// 422, never a wrong float.
	SessNumeric Point = "sess.numeric"
)

// Points returns every known injection point, in stable order.
func Points() []Point {
	return []Point{SrvPanic, SrvStall, SrvQueueTimeout, SrvConnDrop, RegEvict, SessNumeric}
}

// Rule is the firing schedule of one point within a plan.
type Rule struct {
	Point Point
	P     float64       // fire probability per arrival, [0, 1]
	N     uint64        // max fires (0 = unlimited)
	After uint64        // arrivals skipped before the rule becomes live
	D     time.Duration // stall duration (SrvStall; ignored elsewhere)
}

// rule is a Rule plus its runtime state.
type rule struct {
	Rule
	hash    uint64 // fnv64a(point), folded into the decision draw
	calls   atomic.Uint64
	fired   atomic.Uint64
	counter *obs.Counter
}

// Plan is an activated (or activatable) set of rules sharing one seed.
// A Plan's rule set is immutable after Parse; only the counters move.
type Plan struct {
	Seed  uint64
	rules map[Point]*rule
	order []Point // spec order, for String and Stats
}

// active is the process-global armed plan; nil means disabled.
var active atomic.Pointer[Plan]

// On reports whether a plan is armed. Sites may gate on it, but Fire and
// Stall already fold the check into their first load.
func On() bool { return active.Load() != nil }

// Activate arms p process-wide (nil deactivates). The previous plan's
// counters stop moving but remain readable by holders of the pointer.
func Activate(p *Plan) { active.Store(p) }

// Deactivate disarms fault injection.
func Deactivate() { active.Store(nil) }

// Active returns the armed plan, or nil.
func Active() *Plan { return active.Load() }

// Fire reports whether pt fires at this arrival of the armed plan. With
// no plan armed, or no rule for pt, it is false at the cost of one atomic
// load (plus a map probe when armed).
func Fire(pt Point) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	return p.fire(pt)
}

// Stall is Fire for stall-shaped points: it additionally returns the
// rule's configured duration when the point fires.
func Stall(pt Point) (time.Duration, bool) {
	p := active.Load()
	if p == nil {
		return 0, false
	}
	r := p.rules[pt]
	if r == nil || !p.fire(pt) {
		return 0, false
	}
	return r.D, true
}

// fire implements the deterministic decision for one arrival.
func (p *Plan) fire(pt Point) bool {
	r := p.rules[pt]
	if r == nil {
		return false
	}
	n := r.calls.Add(1) // 1-based arrival number
	if n <= r.After {
		return false
	}
	if r.P < 1 {
		// The draw is a pure function of (seed, point, arrival): replaying
		// the same arrival sequence replays the same faults.
		x := splitmix64(p.Seed ^ r.hash ^ (n * 0x9e3779b97f4a7c15))
		if float64(x>>11)/(1<<53) >= r.P {
			return false
		}
	}
	if r.N > 0 {
		// Bounded rules stop exactly at N fires, so the fired counter (and
		// its metric) never overcounts.
		for {
			f := r.fired.Load()
			if f >= r.N {
				return false
			}
			if r.fired.CompareAndSwap(f, f+1) {
				break
			}
		}
	} else {
		r.fired.Add(1)
	}
	r.counter.Inc()
	return true
}

// Fired returns how many times pt has fired under the armed plan (0 when
// disarmed or unruled).
func Fired(pt Point) uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	if r := p.rules[pt]; r != nil {
		return r.fired.Load()
	}
	return 0
}

// PointStats is one rule's configuration and live counters, the admin
// endpoint's view.
type PointStats struct {
	Rule
	Calls uint64 // arrivals observed
	Fired uint64 // faults injected
}

// Stats returns the plan's rules with their counters, in spec order.
func (p *Plan) Stats() []PointStats {
	out := make([]PointStats, 0, len(p.order))
	for _, pt := range p.order {
		r := p.rules[pt]
		out = append(out, PointStats{Rule: r.Rule, Calls: r.calls.Load(), Fired: r.fired.Load()})
	}
	return out
}

// Rules returns the plan's rule set in spec order (configuration only).
func (p *Plan) Rules() []Rule {
	out := make([]Rule, 0, len(p.order))
	for _, pt := range p.order {
		out = append(out, p.rules[pt].Rule)
	}
	return out
}

// String renders the plan in the canonical spec form: Parse(p.String())
// reproduces an equivalent plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, pt := range p.order {
		r := p.rules[pt]
		fmt.Fprintf(&b, ";%s:p=%g", pt, r.P)
		if r.N > 0 {
			fmt.Fprintf(&b, ",n=%d", r.N)
		}
		if r.After > 0 {
			fmt.Fprintf(&b, ",after=%d", r.After)
		}
		if r.D > 0 {
			fmt.Fprintf(&b, ",d=%s", r.D)
		}
	}
	return b.String()
}

// splitmix64 is the SplitMix64 mixer — a bijective avalanche over the
// arrival index, cheap enough for a hot-path decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a point name (registration-time cost only).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
