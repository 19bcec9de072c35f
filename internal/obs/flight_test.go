package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRoundsRingToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewFlightRecorder(tc.in, 4, 0).Len(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Len() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFlightRecorderRecordAndSnapshot(t *testing.T) {
	f := NewFlightRecorder(16, 4, time.Second)
	for i := 0; i < 5; i++ {
		ev := WideEvent{RequestID: fmt.Sprintf("req-%d", i), Route: "/v1/delay", Status: 200, TotalNS: 1000}
		if seq := f.Record(&ev, nil); seq != uint64(i+1) {
			t.Fatalf("Record #%d returned seq %d", i, seq)
		}
	}
	got := f.Snapshot(Filter{})
	if len(got) != 5 {
		t.Fatalf("Snapshot returned %d events, want 5", len(got))
	}
	// Newest first.
	for i, ev := range got {
		if want := uint64(5 - i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if got[0].RequestID != "req-4" || got[4].RequestID != "req-0" {
		t.Errorf("unexpected ordering: first=%s last=%s", got[0].RequestID, got[4].RequestID)
	}
}

// TestFlightRecorderRecordAllocatesNothing: recording a healthy event is
// one atomic bump plus a copy into a preallocated ring slot, so the
// recorder can stay armed on every request and every pipeline net.
func TestFlightRecorderRecordAllocatesNothing(t *testing.T) {
	f := NewFlightRecorder(16, 4, time.Second)
	ev := &WideEvent{RequestID: "req-1", Route: "/v1/delay", Net: "n", Status: 200, TotalNS: 1000}
	ev.AddStage("resolve", time.Microsecond)
	ev.AddStage("analyze", 2*time.Microsecond)
	if got := testing.AllocsPerRun(100, func() { f.Record(ev, nil) }); got != 0 {
		t.Fatalf("Record of a healthy event: %.0f allocations, want 0", got)
	}
}

func TestFlightRecorderRingWraps(t *testing.T) {
	f := NewFlightRecorder(16, 4, time.Second)
	for i := 0; i < 40; i++ {
		f.Record(&WideEvent{Status: 200}, nil)
	}
	got := f.Snapshot(Filter{})
	if len(got) != 16 {
		t.Fatalf("after wrap Snapshot returned %d events, want 16", len(got))
	}
	// Newest first across the wrap: 40, 39, …, 25, with no slot out of
	// place (the ring scan yields ascending runs split at the write head).
	for i, ev := range got {
		if want := uint64(40 - i); ev.Seq != want {
			t.Errorf("Snapshot[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderFilters(t *testing.T) {
	f := NewFlightRecorder(64, 4, time.Second)
	f.Record(&WideEvent{RequestID: "a", Route: "/v1/delay", Status: 200}, nil)
	f.Record(&WideEvent{RequestID: "b", Route: "/v1/edit", Status: 504, Class: "timeout"}, nil)
	f.Record(&WideEvent{RequestID: "b", Route: "/v1/edit", Status: 200}, nil)
	f.Record(&WideEvent{RequestID: "c", Route: "/v1/delay", Status: 400, Class: "parse"}, nil)

	if got := f.Snapshot(Filter{Status: 504}); len(got) != 1 || got[0].RequestID != "b" {
		t.Errorf("Status filter: got %+v", got)
	}
	if got := f.Snapshot(Filter{Class: "parse"}); len(got) != 1 || got[0].RequestID != "c" {
		t.Errorf("Class filter: got %+v", got)
	}
	if got := f.Snapshot(Filter{Route: "/v1/edit"}); len(got) != 2 {
		t.Errorf("Route filter: got %d events, want 2", len(got))
	}
	if got := f.Snapshot(Filter{RequestID: "b"}); len(got) != 2 {
		t.Errorf("RequestID filter: got %d events, want 2", len(got))
	}
	if got := f.Snapshot(Filter{N: 2}); len(got) != 2 || got[0].Seq != 4 {
		t.Errorf("N filter: got %d events, first seq %d", len(got), got[0].Seq)
	}
}

func TestFlightRecorderCapturesErrorsAndSlow(t *testing.T) {
	f := NewFlightRecorder(16, 2, time.Millisecond)
	// Fast success: not captured.
	ok := WideEvent{RequestID: "ok", Status: 200, TotalNS: 10}
	f.Record(&ok, nil)
	if ok.Captured {
		t.Error("fast success marked Captured")
	}
	// Error: captured with its stages.
	errEv := WideEvent{RequestID: "boom", Status: 504, Class: "timeout", TotalNS: 10}
	errEv.AddStage("analyze", 7)
	f.Record(&errEv, nil)
	if !errEv.Captured {
		t.Error("504 not marked Captured")
	}
	// Slow success: captured.
	slow := WideEvent{RequestID: "slow", Status: 200, TotalNS: int64(2 * time.Millisecond)}
	f.Record(&slow, nil)

	caps := f.Captures()
	if len(caps) != 2 {
		t.Fatalf("Captures returned %d, want 2 (bounded)", len(caps))
	}
	if caps[0].RequestID != "slow" || caps[1].RequestID != "boom" {
		t.Errorf("capture order: got %s, %s", caps[0].RequestID, caps[1].RequestID)
	}
	if st := caps[1].Stages(); len(st) != 1 || st[0] != (StageDur{Name: "analyze", NS: 7}) {
		t.Errorf("captured stages = %+v, want [analyze 7]", st)
	}
}

func TestFlightRecorderCapturesPipelineClassFailures(t *testing.T) {
	// Pipeline units have no HTTP status; a guard class alone must
	// qualify for capture.
	f := NewFlightRecorder(16, 4, time.Second)
	ev := WideEvent{RequestID: "net42", Class: "numeric"}
	f.Record(&ev, nil)
	if !ev.Captured {
		t.Error("classed pipeline failure not captured")
	}
}

// TestRecordWritesOneLogRecord: with a logger, each Record writes exactly
// one "request" record carrying the event's keys, at error for a 5xx or
// a classed failure without an HTTP status, warn for a 4xx and info
// otherwise; with a nil logger it writes nothing.
func TestRecordWritesOneLogRecord(t *testing.T) {
	noTime := &slog.HandlerOptions{ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey && len(groups) == 0 {
			return slog.Attr{}
		}
		return a
	}}
	for _, tc := range []struct {
		ev   WideEvent
		want string
	}{
		{WideEvent{RequestID: "r1", Route: "/v1/delay", Status: 200, TotalNS: 5, QueueNS: 2, Attempt: 1, Net: "ab", Cache: "hit", Degraded: "rc_elmore"},
			`{"level":"INFO","msg":"request","request_id":"r1","route":"/v1/delay","status":200,"total_ns":5,"queue_ns":2,"attempt":1,"net":"ab","cache":"hit","degraded":"rc_elmore"}`},
		{WideEvent{RequestID: "r2", Route: "/v1/delay", Status: 404, Class: "not_found", Err: "no net"},
			`{"level":"WARN","msg":"request","request_id":"r2","route":"/v1/delay","status":404,"total_ns":0,"queue_ns":0,"class":"not_found","err":"no net"}`},
		{WideEvent{RequestID: "r3", Route: "/v1/edit", Status: 504, Attempt: 2, Class: "canceled"},
			`{"level":"ERROR","msg":"request","request_id":"r3","route":"/v1/edit","status":504,"total_ns":0,"queue_ns":0,"attempt":2,"class":"canceled"}`},
		{WideEvent{Route: "pipeline.net", Net: "n7", Class: "numeric"},
			`{"level":"ERROR","msg":"request","request_id":"","route":"pipeline.net","status":0,"total_ns":0,"queue_ns":0,"net":"n7","class":"numeric"}`},
	} {
		var buf bytes.Buffer
		f := NewFlightRecorder(16, 4, time.Second)
		ev := tc.ev
		f.Record(&ev, nil)
		f.Record(&ev, slog.New(slog.NewJSONHandler(&buf, noTime)))
		if got := buf.String(); got != tc.want+"\n" {
			t.Errorf("log output:\n%s\nwant one record:\n%s", got, tc.want)
		}
	}
}

func TestWideEventStagesInline(t *testing.T) {
	var ev WideEvent
	for i := 0; i < maxStages+3; i++ {
		ev.AddStage(fmt.Sprintf("s%d", i), time.Duration(i+1))
	}
	if got := len(ev.Stages()); got != maxStages {
		t.Fatalf("Stages() len %d, want capped at %d", got, maxStages)
	}
	b, err := json.Marshal(&ev)
	if err != nil {
		t.Fatal(err)
	}
	var back WideEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages()) != maxStages || back.Stages()[0] != (StageDur{Name: "s0", NS: 1}) {
		t.Errorf("round-trip stages mismatch: %+v", back.Stages())
	}
}

func TestWideEventSettersNilSafe(t *testing.T) {
	var ev *WideEvent
	ev.SetNet("n")
	ev.SetStatus(200)
	ev.SetClass("c")
	ev.SetDegraded("d")
	ev.SetCache("hit")
	ev.SetErr(fmt.Errorf("x"))
	ev.AddStage("s", 1)
	if ev.Stages() != nil {
		t.Error("nil event returned stages")
	}
	if f := (*FlightRecorder)(nil); f.Record(&WideEvent{}, nil) != 0 || f.Snapshot(Filter{}) != nil || f.Captures() != nil {
		t.Error("nil recorder not inert")
	}
}

func TestEventFromContext(t *testing.T) {
	if EventFrom(context.Background()) != nil {
		t.Error("empty context yielded an event")
	}
	ev := &WideEvent{RequestID: "r"}
	ctx := WithEvent(context.Background(), ev)
	if got := EventFrom(ctx); got != ev {
		t.Errorf("EventFrom = %p, want %p", got, ev)
	}
	if WithEvent(context.Background(), nil) != context.Background() {
		t.Error("WithEvent(nil) should return ctx unchanged")
	}
}

// TestFlightRecorderConcurrent is the race-mode reader/writer test: many
// goroutines record while others snapshot and read captures. Run under
// `go test -race ./internal/obs/` it proves the ring is data-race free.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64, 8, time.Millisecond)
	const writers, readers, perWriter = 4, 2, 500
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				ev := WideEvent{RequestID: fmt.Sprintf("w%d-%d", w, i), Route: "/v1/delay", Status: 200 + 304*(i%2), TotalNS: int64(i)}
				ev.AddStage("analyze", time.Duration(i))
				f.Record(&ev, nil)
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := f.Snapshot(Filter{Status: 504, N: 10})
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq >= evs[i-1].Seq {
						t.Errorf("snapshot not strictly newest-first: %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
				f.Captures()
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := f.seq.Load(); got != writers*perWriter {
		t.Errorf("recorded %d events, want %d", got, writers*perWriter)
	}
}
