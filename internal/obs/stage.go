package obs

import (
	"context"
	"time"
)

// Stage times one layer of a unit of work. It reads the clock once when
// it starts and once when it ends, and sends that one duration to every
// sink the layer has:
//
//   - its histogram, if it has one;
//   - the wide event carried by the context, when the stage is the
//     event's outermost open stage: nested layers stay out of the event,
//     so an event's stages partition its total instead of counting it
//     twice. An event nobody has stamped takes its start time from its
//     first stage.
//
// A stage with no sink to feed (no histogram, and no event or one
// already inside a stage) reads no clock at all. A Stage belongs to
// the goroutine that started it, like the wide event it may write, and
// must be ended on every path: until it ends, later stages of the same
// event stay out of the event.
type Stage struct {
	name string
	hist *Histogram
	ev   *WideEvent // set when this is the event's outermost open stage
	t0   time.Time  // zero when no sink needs the clock
}

// StartStage opens the stage name under ctx, feeding hist (nil for
// none).
func StartStage(ctx context.Context, name string, hist *Histogram) Stage {
	s := Stage{name: name, hist: hist}
	if ev := EventFrom(ctx); ev != nil && !ev.inStage {
		ev.inStage = true
		s.ev = ev
	}
	if s.ev == nil && hist == nil {
		return s
	}
	s.t0 = now()
	if s.ev != nil && s.ev.StartNS == 0 {
		s.ev.StartNS = s.t0.UnixNano()
	}
	return s
}

// Time opens a stage that feeds hist alone: a layer with no wide-event
// stage of its own, such as a pass nested inside a stage that has one or
// a call that carries no context. With a nil hist it reads no clock.
func Time(hist *Histogram) Stage {
	if hist == nil {
		return Stage{}
	}
	return Stage{hist: hist, t0: now()}
}

// End closes the stage and returns its duration, or 0 when no sink
// needed the clock. Ending a stage a second time records nothing.
func (s *Stage) End() time.Duration {
	if s.t0.IsZero() {
		return 0
	}
	d := now().Sub(s.t0)
	s.t0 = time.Time{}
	if s.hist != nil {
		s.hist.Observe(int64(d))
	}
	if s.ev != nil {
		s.ev.inStage = false
		s.ev.AddStage(s.name, d)
	}
	return d
}
