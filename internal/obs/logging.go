package obs

import (
	"context"
	"io"
	"log/slog"
	"os"
)

// NewLogger opens a structured JSON logger writing to path ("-" means
// stdout; anything else is created/appended). The returned closer is
// never nil; for stdout it closes nothing. Callers own closing; eedd
// closes it after the drain completes so the "drained" lifecycle event
// is flushed.
func NewLogger(path string) (*slog.Logger, io.Closer, error) {
	if path == "-" {
		return slog.New(slog.NewJSONHandler(os.Stdout, nil)), io.NopCloser(os.Stdout), nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return slog.New(slog.NewJSONHandler(f, nil)), f, nil
}

// logEvent writes ev as one "request" record: error for a 5xx or a
// classed failure without an HTTP status, warn for a 4xx, info otherwise.
func logEvent(log *slog.Logger, ev *WideEvent) {
	lvl := slog.LevelInfo
	switch {
	case ev.Status >= 500 || (ev.Status == 0 && ev.Class != ""):
		lvl = slog.LevelError
	case ev.Status >= 400:
		lvl = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("request_id", ev.RequestID),
		slog.String("route", ev.Route),
		slog.Int("status", ev.Status),
		slog.Int64("total_ns", ev.TotalNS),
		slog.Int64("queue_ns", ev.QueueNS),
	}
	if ev.Attempt > 0 {
		attrs = append(attrs, slog.Int("attempt", ev.Attempt))
	}
	if ev.Net != "" {
		attrs = append(attrs, slog.String("net", ev.Net))
	}
	if ev.Cache != "" {
		attrs = append(attrs, slog.String("cache", ev.Cache))
	}
	if ev.Class != "" {
		attrs = append(attrs, slog.String("class", ev.Class))
	}
	if ev.Degraded != "" {
		attrs = append(attrs, slog.String("degraded", ev.Degraded))
	}
	if ev.Err != "" {
		attrs = append(attrs, slog.String("err", ev.Err))
	}
	log.LogAttrs(context.Background(), lvl, "request", attrs...)
}
