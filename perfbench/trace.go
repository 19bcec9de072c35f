package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call, or N calls timed together. Parent is the id of
// the span that caused it (0 for none) and Op the id of the workload op
// it belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	N      int64  `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory; they are written out when the run ends.
// It is safe for concurrent use (server handlers record spans too), and
// a nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id. The clock is read last, so the
// span's interval holds the call and not the bookkeeping.
func (t *tracer) begin(name string, parent, op int64) int64 {
	return t.beginN(name, parent, op, 1)
}

// beginN opens a span that times n calls.
func (t *tracer) beginN(name string, parent, op, n int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, N: n})
	t.mu.Unlock()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].Start = now
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerStat is one layer's self time over a traced phase.
type layerStat struct {
	calls  int64
	selfNS int64
}

func (s layerStat) meanUS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.selfNS) / float64(s.calls) / 1e3
}

// selfTimes reduces the spans to per-name self time: each span's length
// minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			p := t.spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[s.Parent-1] += hi - lo
			}
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		st.calls += s.N
		st.selfNS += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// traceRun carries one traced run: the untraced phase it is compared
// with, the spans, and the per-layer values it fills in.
type traceRun struct {
	cfg      config
	untraced *phase
	tr       tracer
	layers   map[string]float64
}

// ledger prints one layer line, its self time per call and per op, and
// returns the mean self time per call in µs.
func (tc *traceRun) ledger(stats map[string]layerStat, name string, ops int64, note string) float64 {
	s := stats[name]
	mean := s.meanUS()
	perOp := float64(s.selfNS) / 1e3 / float64(max(ops, 1))
	fmt.Printf("  layer %-34s %8d calls %12.3f us/call %12.3f us/op  %s\n", name, s.calls, mean, perOp, note)
	return mean
}

// overhead prints traced against untraced throughput.
func (tc *traceRun) overhead(what string, traced, untraced float64) {
	fmt.Printf("overhead %s: traced %.2f op/s vs untraced %.2f op/s (%+.1f%%)\n",
		what, traced, untraced, 100*(untraced-traced)/untraced)
}

// reconcile prints the per-op comparison of layer self times against the
// untraced per-op figure, with the remainder as unaccounted.
func (tc *traceRun) reconcile(what string, untracedUS, layersUS float64, parts string) {
	fmt.Printf("reconcile %s %s: untraced %.3f us/op, layers %.3f us/op (%s), unaccounted %.3f us/op (%.1f%%)\n",
		tc.cfg.workload, what, untracedUS, layersUS, parts, untracedUS-layersUS, 100*(untracedUS-layersUS)/untracedUS)
}

// writeSpans writes every span as one JSON line under .bench_build/trace.
func (tc *traceRun) writeSpans() error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", tc.cfg.workload, tc.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tc.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tc.tr.spans), path)
	return nil
}

// timedRounds runs fn as whole rounds for the given time and returns ops
// per second; fn returns the ops it completed.
func timedRounds(seconds float64, fn func() (int, error)) (float64, error) {
	t0 := time.Now()
	ops := 0
	for time.Since(t0).Seconds() < seconds {
		n, err := fn()
		if err != nil {
			return 0, err
		}
		ops += n
	}
	return float64(ops) / time.Since(t0).Seconds(), nil
}
