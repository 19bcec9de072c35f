package obs

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// fakeClock makes span timing deterministic: every call to now() advances
// the clock by one millisecond.
func fakeClock(t *testing.T) {
	t.Helper()
	base := time.Unix(1000, 0)
	tick := 0
	now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	}
	t.Cleanup(func() { now = time.Now })
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestStageWithoutSinks(t *testing.T) {
	st, ctx := StartStage(context.Background(), "stage", nil)
	if st.span != nil {
		t.Fatal("no trace in context must yield no span")
	}
	if ctx != context.Background() {
		t.Fatal("context must be returned unchanged")
	}
	// The span annotations are no-ops without a span.
	st.SetLabel("x")
	st.SetSections(1)
	st.SetWorkers(1)
	if d := st.End("error"); d != 0 {
		t.Fatalf("a stage with no sink measured %v", d)
	}
}

const goldenTrace = `{
  "name": "cli",
  "outcome": "ok",
  "start_ns": 0,
  "dur_ns": 7000000,
  "children": [
    {
      "name": "parse",
      "label": "tree.txt",
      "outcome": "ok",
      "sections": 7,
      "start_ns": 1000000,
      "dur_ns": 1000000
    },
    {
      "name": "sweep",
      "outcome": "degraded",
      "sections": 7,
      "workers": 4,
      "start_ns": 3000000,
      "dur_ns": 3000000,
      "children": [
        {
          "name": "sums",
          "outcome": "ok",
          "start_ns": 4000000,
          "dur_ns": 1000000
        }
      ]
    }
  ]
}
`

func TestTraceGoldenJSON(t *testing.T) {
	fakeClock(t)
	trace := NewTrace("cli") // t=1ms
	ctx := WithTrace(context.Background(), trace)

	parse, _ := StartStage(ctx, "parse", nil) // t=2ms
	parse.SetLabel("tree.txt")
	parse.SetSections(7)
	parse.End("") // t=3ms → dur 1ms

	sweep, sctx := StartStage(ctx, "sweep", nil) // t=4ms
	sweep.SetSections(7)
	sweep.SetWorkers(4)
	sums, _ := StartStage(sctx, "sums", nil) // t=5ms
	sums.End("")                             // t=6ms → dur 1ms
	sweep.End("degraded")                    // t=7ms → dur 3ms

	trace.Finish() // t=8ms → root dur 7ms

	var sb strings.Builder
	if err := trace.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenTrace {
		t.Errorf("trace JSON mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenTrace)
	}
}

// Every span must report a non-zero duration, even when it starts and
// ends on the same clock reading.
func TestSpanDurationClamped(t *testing.T) {
	frozen := time.Unix(2000, 0)
	now = func() time.Time { return frozen }
	t.Cleanup(func() { now = time.Now })
	trace := NewTrace("root")
	ctx := WithTrace(context.Background(), trace)
	s, _ := StartStage(ctx, "instant", nil)
	s.End("")
	trace.Finish()
	var sb strings.Builder
	if err := trace.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"dur_ns": 0`) {
		t.Fatalf("zero-duration span in trace:\n%s", sb.String())
	}
}

func TestTraceDumpJSONFile(t *testing.T) {
	fakeClock(t)
	trace := NewTrace("cli")
	trace.Finish()
	path := t.TempDir() + "/trace.json"
	if err := trace.DumpJSON(path); err != nil {
		t.Fatal(err)
	}
	if out := mustRead(t, path); !strings.Contains(out, `"name": "cli"`) {
		t.Fatalf("dump missing root span:\n%s", out)
	}
}

func TestWithTraceNil(t *testing.T) {
	ctx := context.Background()
	if got := WithTrace(ctx, nil); got != ctx {
		t.Fatal("WithTrace(nil) must return the context unchanged")
	}
}
