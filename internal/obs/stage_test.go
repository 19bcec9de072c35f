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

// TestStageOffReadsNoClock: with instrumentation off and no event in the
// context, a stage — histogram or not — never reads the clock and
// records nothing.
func TestStageOffReadsNoClock(t *testing.T) {
	reads := countingClock(t)
	SetEnabled(false)
	defer SetEnabled(true)
	h := NewRegistry().Histogram("stage_ns", "test", DefaultLatencyBuckets)

	before := reads()
	st := StartStage(context.Background(), "sums", h)
	st.End()
	tm := Time(h)
	tm.End()
	if got := reads() - before; got != 0 {
		t.Errorf("disabled stages read the clock %d times, want 0", got)
	}
	if h.Count() != 0 {
		t.Errorf("disabled stages recorded %d samples", h.Count())
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
