package obs

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Trace is a tree of Spans covering one pipeline run (one CLI invocation,
// one request). Create it with NewTrace and attach it to a context with
// WithTrace; every Stage started from that context opens a child span.
// Tracing is strictly opt-in: without a Trace in the context a stage
// opens no span, and every *Span method is nil-safe.
type Trace struct {
	root *Span
}

// Span is the trace record of one Stage. Fields are recorded via the
// setters (nil-safe) and serialized by Trace.WriteJSON.
type Span struct {
	mu       sync.Mutex
	name     string
	label    string // free-form identifier, e.g. the input path
	outcome  string // "ok", "degraded", "hit", "miss", or a guard class
	sections int64  // tree sections this stage worked on, when known
	workers  int64  // worker-pool width, when relevant
	start    time.Time
	dur      time.Duration
	children []*Span
}

type spanKey struct{}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	return &Trace{root: &Span{name: name, start: now()}}
}

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish ends the root span; call it once the pipeline is done, before
// WriteJSON.
func (t *Trace) Finish() { t.root.end("", now().Sub(t.root.start)) }

// WithTrace returns a context carrying the trace; stages started from it
// open their spans under the root.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, t.root)
}

// WithoutTrace returns a context that keeps ctx's deadline, cancellation
// and other values but carries no trace, so stages started from it open
// no span. A run that repeats the same layers once per item (a net, a
// task) does its per-item work under it: the trace then holds the run's
// own stages, whatever the item count, and the per-item layer times stay
// in their histograms.
func WithoutTrace(ctx context.Context) context.Context {
	if ctx.Value(spanKey{}) == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, (*Span)(nil))
}

// child opens a span named name under s, starting at t0.
func (s *Span) child(name string, t0 time.Time) *Span {
	c := &Span{name: name, start: t0}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetLabel attaches a free-form identifier (e.g. the input path).
func (s *Span) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.mu.Unlock()
}

// SetSections records how many tree sections the stage worked on.
func (s *Span) SetSections(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sections = int64(n)
	s.mu.Unlock()
}

// SetWorkers records the worker-pool width the stage used.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.workers = int64(n)
	s.mu.Unlock()
}

// end closes the span after d with outcome ("" means "ok"). The recorded
// duration is clamped to ≥ 1 ns so even instantaneous stages are visibly
// non-zero in the trace; a second end changes nothing.
func (s *Span) end(outcome string, d time.Duration) {
	if s == nil {
		return
	}
	if outcome == "" {
		outcome = "ok"
	}
	s.mu.Lock()
	if s.dur == 0 {
		s.dur = max(d, time.Nanosecond)
		s.outcome = outcome
	}
	s.mu.Unlock()
}

// SpanNode is the serialized form of a span, also served by the flight
// recorder's capture buffer. Start offsets are relative to the root
// span's start so traces are comparable across runs.
type SpanNode struct {
	Name     string     `json:"name"`
	Label    string     `json:"label,omitempty"`
	Outcome  string     `json:"outcome"`
	Sections int64      `json:"sections,omitempty"`
	Workers  int64      `json:"workers,omitempty"`
	StartNS  int64      `json:"start_ns"`
	DurNS    int64      `json:"dur_ns"`
	Children []SpanNode `json:"children,omitempty"`
}

func (s *Span) toJSON(origin time.Time) SpanNode {
	s.mu.Lock()
	j := SpanNode{
		Name:     s.name,
		Label:    s.label,
		Outcome:  s.outcome,
		Sections: s.sections,
		Workers:  s.workers,
		StartNS:  int64(s.start.Sub(origin)),
		DurNS:    int64(s.dur),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		j.Children = append(j.Children, c.toJSON(origin))
	}
	return j
}

// Tree returns the serialized span tree rooted at the trace's root.
// Spans still open serialize with their current fields and a zero
// duration; it is safe to call before Finish (the capture buffer does,
// for requests that error out mid-flight).
func (t *Trace) Tree() SpanNode { return t.root.toJSON(t.root.start) }

// WriteJSON writes the span tree as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.root.toJSON(t.root.start))
}

// DumpJSON writes the span tree to path ("-" means stdout).
func (t *Trace) DumpJSON(path string) error {
	if path == "-" {
		return t.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
