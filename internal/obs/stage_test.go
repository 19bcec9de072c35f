package obs

import (
	"context"
	"testing"
	"time"
)

// countingClock replaces now with a clock that advances 1 ms per read
// and returns the number of reads so far.
func countingClock(t *testing.T) func() int {
	t.Helper()
	base := time.Unix(3000, 0)
	reads := 0
	now = func() time.Time {
		reads++
		return base.Add(time.Duration(reads) * time.Millisecond)
	}
	t.Cleanup(func() { now = time.Now })
	return func() int { return reads }
}

// TestStageOneReadFeedsEverySink: a stage reads the clock once at each
// end, and its histogram sample and wide-event stage are that one
// number.
func TestStageOneReadFeedsEverySink(t *testing.T) {
	reads := countingClock(t)
	h := NewRegistry().Histogram("stage_ns", "test", DefaultLatencyBuckets)
	ev := &WideEvent{}
	ctx := WithEvent(context.Background(), ev)

	before := reads()
	st := StartStage(ctx, "analyze", h)
	d := st.End()
	if got := reads() - before; got != 2 {
		t.Fatalf("stage read the clock %d times, want 2", got)
	}
	if d != time.Millisecond {
		t.Fatalf("End returned %v, want 1ms", d)
	}
	if h.Count() != 1 || h.Sum() != int64(d) {
		t.Errorf("histogram holds %d samples summing %d, want one of %d", h.Count(), h.Sum(), int64(d))
	}
	if stages := ev.Stages(); len(stages) != 1 || stages[0] != (StageDur{Name: "analyze", NS: int64(d)}) {
		t.Errorf("event stages = %+v, want [analyze %d]", stages, int64(d))
	}
	if st.End() != 0 || h.Count() != 1 || len(ev.Stages()) != 1 {
		t.Error("a second End must record nothing")
	}
}

// TestStageReadsClockIffItHasASink: a stage reads the clock twice when
// it has a sink — its histogram, or a wide event with no stage open —
// and never otherwise, and its one duration reaches exactly those sinks.
func TestStageReadsClockIffItHasASink(t *testing.T) {
	reads := countingClock(t)
	for _, c := range []struct {
		name       string
		hist, time bool   // with a histogram; opened by Time instead of StartStage
		ev         string // the context's event: "", "free" or "busy" (inside a stage)
		reads      int
		toEvent    bool
	}{
		{"no sink", false, false, "", 0, false},
		{"histogram", true, false, "", 2, false},
		{"free event", false, false, "free", 2, true},
		{"histogram and free event", true, false, "free", 2, true},
		{"busy event", false, false, "busy", 0, false},
		{"histogram and busy event", true, false, "busy", 2, false},
		{"Time(nil)", false, true, "", 0, false},
		{"Time(h)", true, true, "", 2, false},
	} {
		var h *Histogram
		if c.hist {
			h = NewRegistry().Histogram("stage_ns", "test", DefaultLatencyBuckets)
		}
		ev := &WideEvent{inStage: c.ev == "busy"}
		ctx := context.Background()
		if c.ev != "" {
			ctx = WithEvent(ctx, ev)
		}
		before := reads()
		var st Stage
		if c.time {
			st = Time(h)
		} else {
			st = StartStage(ctx, "layer", h)
		}
		d := st.End()
		if got := reads() - before; got != c.reads || d != time.Duration(c.reads/2)*time.Millisecond {
			t.Errorf("%s: %d clock reads measured %v, want %d", c.name, got, d, c.reads)
		}
		if c.hist && (h.Count() != 1 || h.Sum() != int64(d)) {
			t.Errorf("%s: histogram holds %d samples summing %d, want one of %d", c.name, h.Count(), h.Sum(), int64(d))
		}
		if got := len(ev.Stages()) == 1 && ev.Stages()[0].NS == int64(d); got != c.toEvent {
			t.Errorf("%s: event stages %+v, want the duration there: %v", c.name, ev.Stages(), c.toEvent)
		}
	}
}

// TestMetricWritesAllocateNothing: the metric writes a sweep makes —
// counter and gauge moves, a histogram sample, a stage on a context with
// no event, Time with End — allocate nothing.
func TestMetricWritesAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test")
	g := r.Gauge("g", "test")
	h := r.Histogram("h_ns", "test", DefaultLatencyBuckets)
	ctx := context.Background()
	for name, write := range map[string]func(){
		"Counter.Inc":       c.Inc,
		"Gauge.Inc/Dec/Set": func() { g.Inc(); g.Dec(); g.Set(7) },
		"Histogram.Observe": func() { h.Observe(1234) },
		"StartStage":        func() { st := StartStage(ctx, "sums", h); st.End() },
		"Time":              func() { st := Time(h); st.End() },
	} {
		if got := testing.AllocsPerRun(100, write); got != 0 {
			t.Errorf("%s: %.0f allocations, want 0", name, got)
		}
	}
}

// TestStageWithoutSinks: a stage with neither a histogram nor an event
// reads no clock and measures nothing, even with instrumentation on.
func TestStageWithoutSinks(t *testing.T) {
	reads := countingClock(t)
	st := StartStage(context.Background(), "stage", nil)
	if d := st.End(); d != 0 || reads() != 0 {
		t.Fatalf("a stage with no sink measured %v over %d clock reads", d, reads())
	}
}

// TestStageNestedStaysOutOfEvent: only the outermost open stage writes
// the wide event, so nested layers cannot double count its total.
func TestStageNestedStaysOutOfEvent(t *testing.T) {
	reads := countingClock(t)
	ev := &WideEvent{}
	ctx := WithEvent(context.Background(), ev)

	before := reads()
	resolve := StartStage(ctx, "resolve", nil)
	resolve.End()
	outer := StartStage(ctx, "analyze", nil)
	inner := StartStage(ctx, "sums", nil) // same event, outer still open
	inner.End()
	outer.End()
	after := StartStage(ctx, "edit", nil)
	after.End()
	elapsed := int64(reads()-before) * int64(time.Millisecond)

	var names []string
	var sum int64
	for _, sd := range ev.Stages() {
		names = append(names, sd.Name)
		sum += sd.NS
	}
	if got := len(names); got != 3 || names[0] != "resolve" || names[1] != "analyze" || names[2] != "edit" {
		t.Errorf("event stages = %v, want [resolve analyze edit]", names)
	}
	if sum > elapsed {
		t.Errorf("event stages sum %d ns past the %d ns the clock advanced", sum, elapsed)
	}
}
