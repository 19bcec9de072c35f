package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Lookup on the hot path is lock-free (a
// sync.Map load); creation takes a mutex once per metric name. Metric
// names follow the Prometheus convention (`eed_engine_cache_hits_total`)
// and may carry a single label rendered into the name with Label
// (`eed_guard_errors_total{class="parse"}`) — the exposition writer
// groups labeled series into one metric family.
type Registry struct {
	mu      sync.Mutex // serializes creation only
	metrics sync.Map   // full name -> *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry. Most code uses Default().
func NewRegistry() *Registry { return &Registry{} }

// labelEscaper is built once: a strings.Replacer is costly to construct
// and safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders a single key="value" label into a metric name, escaping
// the value's backslashes, quotes and newlines per the exposition format.
func Label(name, key, value string) string {
	return name + "{" + key + `="` + labelEscaper.Replace(value) + `"}`
}

// familyOf strips the label part of a full metric name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter is a monotonically increasing counter. Inc/Add are single
// atomic adds.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the full metric name (including any label).
func (c *Counter) Name() string { return c.name }

// Gauge is a value that can go up and down. All mutators are single
// atomic operations.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the full metric name.
func (g *Gauge) Name() string { return g.name }

// Counter returns the counter registered under name, creating it with
// help on first use. Registering the same name as a different metric
// kind panics — a programming error, not an input condition.
func (r *Registry) Counter(name, help string) *Counter {
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Counter](name, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Counter](name, m)
	}
	c := &Counter{name: name, help: help}
	r.metrics.Store(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating it with help
// on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Gauge](name, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Gauge](name, m)
	}
	g := &Gauge{name: name, help: help}
	r.metrics.Store(name, g)
	return g
}

// Histogram returns the histogram registered under name, creating it with
// help and the given ascending bucket upper bounds on first use (an
// implicit +Inf bucket is always appended). Later calls ignore bounds and
// return the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Histogram](name, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return mustKind[*Histogram](name, m)
	}
	h := newHistogram(name, help, bounds)
	r.metrics.Store(name, h)
	return h
}

func mustKind[T any](name string, m any) T {
	t, ok := m.(T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return t
}

// sortedNames returns every registered metric name in lexical order, so
// exposition output is deterministic.
func (r *Registry) sortedNames() []string {
	var names []string
	r.metrics.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}
