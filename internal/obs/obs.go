// Package obs is the pipeline-wide observability layer: a metrics
// registry of lock-free counters, gauges and fixed-bucket histograms, a
// per-request flight recorder of wide events, and the Prometheus text
// exposition. It is dependency-free (standard library only) so every
// other package — guard, core, engine, transim, the CLIs — can
// instrument itself without import cycles. It is always on: no call
// site guards a metric write or a stage.
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
//   - Exposition never blocks recording. Readers snapshot atomics; a
//     concurrent exposition dump observes a consistent-enough point-in-
//     time view without stalling workers.
package obs

import "time"

// now is the clock used for stages, swappable in tests for
// deterministic durations.
var now = time.Now

// defaultRegistry is the process-wide registry all instrumented packages
// share; CLIs dump it at exit.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
