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
// end, and its histogram sample, wide-event stage and span duration are
// that one number.
func TestStageOneReadFeedsEverySink(t *testing.T) {
	reads := countingClock(t)
	h := NewRegistry().Histogram("stage_ns", "test", DefaultLatencyBuckets)
	tr := NewTrace("req")
	ev := &WideEvent{}
	ctx := WithEvent(WithTrace(context.Background(), tr), ev)

	before := reads()
	st, _ := StartStage(ctx, "analyze", h)
	d := st.End("")
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
	tr.Finish()
	if kids := tr.Tree().Children; len(kids) != 1 || kids[0].Name != "analyze" || kids[0].DurNS != int64(d) {
		t.Errorf("span children = %+v, want one analyze span of %d ns", kids, int64(d))
	}
	if st.End("") != 0 || h.Count() != 1 || len(ev.Stages()) != 1 {
		t.Error("a second End must record nothing")
	}
}

// TestStageOffReadsNoClock: with instrumentation off and no trace or
// event in the context, a stage — histogram or not — never reads the
// clock and records nothing.
func TestStageOffReadsNoClock(t *testing.T) {
	reads := countingClock(t)
	SetEnabled(false)
	defer SetEnabled(true)
	h := NewRegistry().Histogram("stage_ns", "test", DefaultLatencyBuckets)

	before := reads()
	st, _ := StartStage(context.Background(), "sums", h)
	st.End("")
	tm := Time(h)
	tm.End("")
	if got := reads() - before; got != 0 {
		t.Errorf("disabled stages read the clock %d times, want 0", got)
	}
	if h.Count() != 0 {
		t.Errorf("disabled stages recorded %d samples", h.Count())
	}
}

// TestStageNestedStaysOutOfEvent: only the outermost open stage writes
// the wide event, so nested layers cannot double count its total, while
// every stage still feeds its own span.
func TestStageNestedStaysOutOfEvent(t *testing.T) {
	countingClock(t)
	tr := NewTrace("req")
	ev := &WideEvent{}
	ctx := WithEvent(WithTrace(context.Background(), tr), ev)

	resolve, _ := StartStage(ctx, "resolve", nil)
	resolve.End("hit")
	outer, octx := StartStage(ctx, "analyze", nil)
	inner, _ := StartStage(octx, "sums", nil)
	sibling, _ := StartStage(ctx, "sweep", nil) // same event, outer still open
	sibling.End("")
	inner.End("")
	outer.End("")
	after, _ := StartStage(ctx, "edit", nil)
	after.End("")

	var names []string
	var sum int64
	for _, sd := range ev.Stages() {
		names = append(names, sd.Name)
		sum += sd.NS
	}
	if got := len(names); got != 3 || names[0] != "resolve" || names[1] != "analyze" || names[2] != "edit" {
		t.Errorf("event stages = %v, want [resolve analyze edit]", names)
	}
	tr.Finish()
	root := tr.Tree()
	if len(root.Children) != 4 || len(root.Children[1].Children) != 1 || root.Children[1].Children[0].Name != "sums" {
		t.Errorf("span tree = %+v, want resolve, analyze{sums}, sweep, edit", root)
	}
	if root.Children[0].Outcome != "hit" {
		t.Errorf("resolve outcome = %q, want hit", root.Children[0].Outcome)
	}
	if sum > root.DurNS {
		t.Errorf("event stages sum %d ns past the request's %d ns", sum, root.DurNS)
	}
}

// TestWithoutTraceOpensNoSpan: a stage started under WithoutTrace opens
// no span in the trace it hides, and the context keeps the parent's
// cancellation.
func TestWithoutTraceOpensNoSpan(t *testing.T) {
	tr := NewTrace("root")
	ctx, cancel := context.WithCancel(WithTrace(context.Background(), tr))
	bare := WithoutTrace(ctx)
	st, _ := StartStage(bare, "hidden", nil)
	st.End("")
	cancel()
	if bare.Err() == nil {
		t.Fatal("WithoutTrace dropped the parent's cancellation")
	}
	if n := len(tr.Tree().Children); n != 0 {
		t.Fatalf("trace gained %d spans from a traceless context", n)
	}
	if bg := context.Background(); WithoutTrace(bg) != bg {
		t.Fatal("a context without a trace must come back unchanged")
	}
}
