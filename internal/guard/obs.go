package guard

import "eedtree/internal/obs"

// Registry counters for the fault-isolation layer: every typed error
// created through the taxonomy is counted by class, and every input-limit
// violation is counted by the bound it tripped. Counting happens at error
// creation (New/Newf and panic recovery), so wrapping helpers like
// WithNode/WithLine do not double-count.
var errorCounters = map[error]*obs.Counter{
	ErrParse:    newErrorCounter("parse"),
	ErrTopology: newErrorCounter("topology"),
	ErrNumeric:  newErrorCounter("numeric"),
	ErrCanceled: newErrorCounter("canceled"),
	ErrLimit:    newErrorCounter("limit"),
	ErrInternal: newErrorCounter("internal"),
}

func newErrorCounter(class string) *obs.Counter {
	return obs.Default().Counter(obs.Label("eed_guard_errors_total", "class", class),
		"Typed errors created, by taxonomy class.")
}

// countError bumps the per-class error counter.
func countError(class error) {
	if c := errorCounters[class]; c != nil {
		c.Inc()
	}
}

// countLimitTrip bumps the per-bound limit-violation counter. Bounds are
// a small fixed vocabulary ("line-bytes", "elements", "nodes", …), so the
// get-or-create lookup stays cheap and the label set stays finite.
func countLimitTrip(bound string) {
	obs.Default().Counter(obs.Label("eed_guard_limit_trips_total", "bound", bound),
		"Input-limit violations, by tripped bound.").Inc()
}
