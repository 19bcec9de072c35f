// Package obs is the pipeline-wide observability layer: a metrics
// registry of lock-free counters, gauges and fixed-bucket histograms, a
// per-request flight recorder of wide events, and exporters (Prometheus
// text exposition and JSON). It is dependency-free (standard library
// only) so every other package — guard, core, engine, transim, the CLIs
// — can instrument itself without import cycles.
//
// A layer of work is timed one way, by a Stage: StartStage reads the
// clock once at each end and sends that one duration to the layer's
// histogram and to the wide event carried by the context (outermost open
// stage only, so an event's stages partition its total). Time is the
// same stage for a layer that only has a histogram.
//
// Design constraints, in order:
//
//   - The hot path must stay hot. Recording a counter or histogram sample
//     is a single atomic add (plus one for the histogram running sum) —
//     no locks, no allocation. Registration (get-or-create by name) is
//     the only synchronized operation and is meant to be done once, in
//     package variables.
//   - Everything is optional. The global switch lives here: while it is
//     off, counters, histograms and Gauge.Set record nothing and a stage
//     with no event reads no clock, so switching it off leaves an
//     uninstrumented baseline without a guard at each call site. Call
//     sites read On() only to skip real work — building a wide event, an
//     O(n) tally — or to keep a gauge's paired Inc and Dec on the same
//     side of a flip.
//   - Exposition never blocks recording. Readers snapshot atomics; a
//     concurrent exposition dump observes a consistent-enough point-in-
//     time view without stalling workers.
package obs

import (
	"sync/atomic"
	"time"
)

// enabled is the global instrumentation switch. It defaults to on;
// tests turn it off to compare the instrumented hot path against the
// uninstrumented one.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// On reports whether instrumentation is enabled. Metric writes and
// stages check it themselves; callers read it only to skip work that
// exists for instrumentation alone. The check is a single atomic load.
func On() bool { return enabled.Load() }

// SetEnabled flips the global instrumentation switch. Off means metric
// writes record nothing; metrics already registered keep their values.
func SetEnabled(v bool) { enabled.Store(v) }

// now is the clock used for stages, swappable in tests for
// deterministic durations.
var now = time.Now

// defaultRegistry is the process-wide registry all instrumented packages
// share; CLIs dump it at exit.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
