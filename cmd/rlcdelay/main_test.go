package main

import (
	"math"
	"time"

	"bytes"
	"context"
	"eedtree/internal/obs"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eedtree/internal/engine"
)

const treeText = `# Fig-5 style tree
s1 -  25 1n 50f
s2 s1 25 1n 50f
s3 s1 25 1n 50f
s4 s2 25 1n 50f
s5 s2 25 1n 50f
s6 s3 25 1n 50f
s7 s3 25 1n 50f
`

func writeTree(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.txt")
	if err := os.WriteFile(path, []byte(treeText), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	return out, ferr
}

// runToString invokes run with a fresh single-worker engine, returning the
// report text.
func runToString(t *testing.T, path string, opts batchOptions) (string, error) {
	t.Helper()
	if opts.vdd == 0 {
		opts.vdd = 1
	}
	var buf bytes.Buffer
	var info inputInfo
	err := run(context.Background(), engine.New(engine.Options{Workers: 1}), &buf, path, opts, &info)
	return buf.String(), err
}

func TestRunAllNodes(t *testing.T) {
	path := writeTree(t)
	out, err := runToString(t, path, batchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node", "zeta", "s1", "s7", "elmore50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 8 {
		t.Fatalf("expected a row per node:\n%s", out)
	}
}

func TestRunSingleNodeWithSim(t *testing.T) {
	path := writeTree(t)
	out, err := runToString(t, path, batchOptions{node: "s7", sim: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "s7") || strings.Contains(out, "\ns1 ") {
		t.Fatalf("single-node filter failed:\n%s", out)
	}
	if !strings.Contains(out, "sim50") || !strings.Contains(out, "err%") {
		t.Fatalf("simulation columns missing:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := runToString(t, filepath.Join(t.TempDir(), "missing.txt"), batchOptions{}); err == nil {
		t.Fatal("missing file must fail")
	}
	path := writeTree(t)
	if _, err := runToString(t, path, batchOptions{node: "bogus"}); err == nil {
		t.Fatal("unknown node must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("x y z"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runToString(t, bad, batchOptions{}); err == nil {
		t.Fatal("malformed tree must fail")
	}
}

func TestRunDOT(t *testing.T) {
	path := writeTree(t)
	var buf bytes.Buffer
	if err := runDOT(&buf, path, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", `"in" -> "s1"`, `"s3" -> "s7"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	if err := runDOT(io.Discard, filepath.Join(t.TempDir(), "missing"), false, ""); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestSIFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1.5e-12, "1.5ps"},
		{2e-9, "2ns"},
		{3e-6, "3us"},
		{5e-14, "50fs"},
	}
	for _, c := range cases {
		if got := si(c.in); got != c.want {
			t.Errorf("si(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRunBatchPartialFailure exercises the documented batch contract: a
// malformed deck among valid ones is reported with its error class, the
// valid inputs are still analyzed, and the exit code is 3.
func TestRunBatchPartialFailure(t *testing.T) {
	good := writeTree(t)
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	var code int
	out, _ := capture(t, func() error {
		code = runBatch(context.Background(), []string{bad, good}, batchOptions{vdd: 1}, &stderr)
		return nil
	})
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (partial failure)", code)
	}
	if !strings.Contains(out, "s7") || !strings.Contains(out, "elmore50") {
		t.Fatalf("valid input was not analyzed:\n%s", out)
	}
	if msg := stderr.String(); !strings.Contains(msg, bad) || !strings.Contains(msg, "[parse]") {
		t.Fatalf("malformed input not reported with its class:\n%s", msg)
	}
}

func TestRunBatchAllFailAndAllOK(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	var code int
	capture(t, func() error {
		code = runBatch(context.Background(), []string{bad}, batchOptions{vdd: 1}, &stderr)
		return nil
	})
	if code != 1 {
		t.Fatalf("all-failed exit code = %d, want 1", code)
	}
	good := writeTree(t)
	capture(t, func() error {
		code = runBatch(context.Background(), []string{good}, batchOptions{vdd: 1}, &stderr)
		return nil
	})
	if code != 0 {
		t.Fatalf("all-ok exit code = %d, want 0", code)
	}
}

// TestRunBatchCanceled: an expired context fails every input with the
// canceled class instead of hanging or crashing.
func TestRunBatchCanceled(t *testing.T) {
	good := writeTree(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	var code int
	capture(t, func() error {
		code = runBatch(ctx, []string{good}, batchOptions{vdd: 1}, &stderr)
		return nil
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "[canceled]") {
		t.Fatalf("expected canceled class in:\n%s", stderr.String())
	}
}

// TestRunDegradedNote: an all-inductances-zero tree degrades every node to
// the RC (Elmore) model and says so.
func TestRunDegradedNote(t *testing.T) {
	rc := filepath.Join(t.TempDir(), "rc.txt")
	if err := os.WriteFile(rc, []byte("s1 - 25 0 50f\ns2 s1 25 0 50f\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runToString(t, rc, batchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "inf(RC)") || !strings.Contains(out, "degraded to the RC (Elmore) model") {
		t.Fatalf("degradation note missing:\n%s", out)
	}
}

// writeScaledTrees writes n tree files with distinct element values so each
// input's report is distinguishable, returning the paths.
func writeScaledTrees(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		r := 20 + 5*i
		text := fmt.Sprintf("s1 -  %d 1n 50f\ns2 s1 %d 1n 50f\ns3 s2 %d 1n 50f\n", r, r, r)
		paths[i] = filepath.Join(dir, fmt.Sprintf("tree%02d.txt", i))
		if err := os.WriteFile(paths[i], []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestRunBatchParallelDeterministicOrder: with -j 4, a batch of distinct
// inputs emits exactly the byte stream the serial batch emits — headers and
// per-input reports in input order — and exit code 0.
func TestRunBatchParallelDeterministicOrder(t *testing.T) {
	paths := writeScaledTrees(t, 8)
	var serialErr, parErr bytes.Buffer
	var serialCode, parCode int
	serialOut, _ := capture(t, func() error {
		serialCode = runBatch(context.Background(), paths, batchOptions{vdd: 1, jobs: 1}, &serialErr)
		return nil
	})
	parOut, _ := capture(t, func() error {
		parCode = runBatch(context.Background(), paths, batchOptions{vdd: 1, jobs: 4}, &parErr)
		return nil
	})
	if serialCode != 0 || parCode != 0 {
		t.Fatalf("exit codes serial=%d parallel=%d, want 0", serialCode, parCode)
	}
	if parOut != serialOut {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serialOut, parOut)
	}
	// Headers must appear in input order.
	last := -1
	for _, p := range paths {
		idx := strings.Index(parOut, "== "+p+" ==")
		if idx < 0 || idx < last {
			t.Fatalf("header for %s missing or out of order", p)
		}
		last = idx
	}
}

// TestRunBatchParallelExitCodes: the 0/1/3 exit-code contract and per-input
// isolation hold under -j 4: bad inputs are reported with their class, good
// inputs still analyzed.
func TestRunBatchParallelExitCodes(t *testing.T) {
	good := writeScaledTrees(t, 3)
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	var code int
	out, _ := capture(t, func() error {
		code = runBatch(context.Background(), []string{good[0], bad, good[1], good[2]}, batchOptions{vdd: 1, jobs: 4}, &stderr)
		return nil
	})
	if code != 3 {
		t.Fatalf("partial-failure exit code = %d, want 3", code)
	}
	if strings.Count(out, "elmore50") != 3 {
		t.Fatalf("expected 3 successful reports:\n%s", out)
	}
	if msg := stderr.String(); !strings.Contains(msg, bad) || !strings.Contains(msg, "[parse]") {
		t.Fatalf("bad input not reported with its class:\n%s", msg)
	}

	stderr.Reset()
	capture(t, func() error {
		code = runBatch(context.Background(), []string{bad, bad}, batchOptions{vdd: 1, jobs: 4}, &stderr)
		return nil
	})
	if code != 1 {
		t.Fatalf("all-failed exit code = %d, want 1", code)
	}
}

// TestRunBatchParallelCanceled: a dead context fails every input of a
// parallel batch with the canceled class, exit code 1.
func TestRunBatchParallelCanceled(t *testing.T) {
	paths := writeScaledTrees(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	var code int
	capture(t, func() error {
		code = runBatch(ctx, paths, batchOptions{vdd: 1, jobs: 4}, &stderr)
		return nil
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if got := strings.Count(stderr.String(), "[canceled]"); got != len(paths) {
		t.Fatalf("%d canceled diagnostics for %d inputs:\n%s", got, len(paths), stderr.String())
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(0, 0, 1); err != nil {
		t.Errorf("documented defaults must validate: %v", err)
	}
	if err := validateFlags(4, time.Second, 1.8); err != nil {
		t.Errorf("ordinary values must validate: %v", err)
	}
	cases := []struct {
		name    string
		jobs    int
		timeout time.Duration
		vdd     float64
	}{
		{"negative-jobs", -1, 0, 1},
		{"negative-timeout", 0, -time.Second, 1},
		{"zero-vdd", 0, 0, 0},
		{"negative-vdd", 0, 0, -1},
		{"nan-vdd", 0, 0, math.NaN()},
		{"inf-vdd", 0, 0, math.Inf(1)},
	}
	for _, c := range cases {
		if err := validateFlags(c.jobs, c.timeout, c.vdd); err == nil {
			t.Errorf("%s: expected a usage error", c.name)
		}
	}
}

// TestBatchSummaryLine: batch mode ends with a stderr summary carrying the
// input/failure totals, degraded counts and latency percentiles — and the
// summary stays off stdout, which must remain byte-identical between
// serial and parallel runs.
func TestBatchSummaryLine(t *testing.T) {
	paths := writeScaledTrees(t, 4)
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, bad)
	var stderr bytes.Buffer
	out, _ := capture(t, func() error {
		runBatch(context.Background(), paths, batchOptions{vdd: 1, jobs: 2}, &stderr)
		return nil
	})
	msg := stderr.String()
	for _, want := range []string{
		"rlcdelay: batch: 5 input(s), 1 failed",
		"parse:1",
		", 0 node(s) degraded to RC in 0 input(s), latency p50=",
		"p99=",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("summary missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(out, "batch:") {
		t.Errorf("summary leaked onto stdout:\n%s", out)
	}
}

// TestMetricsCoverPipelineLayers: one -sim input adds a sample to the
// latency histogram of every timed layer it runs through — the sums
// pass, the per-node sweep and the engine's sweep — and counts the
// simulator's steps, so -metrics reports each of them.
func TestMetricsCoverPipelineLayers(t *testing.T) {
	path := writeTree(t)
	reg := obs.Default()
	counts := map[string]func() uint64{"eed_transim_steps_total": reg.Counter("eed_transim_steps_total", "").Value}
	for _, name := range []string{"eed_core_sums_latency_ns", "eed_core_kernel_latency_ns", "eed_engine_sweep_latency_ns"} {
		counts[name] = reg.Histogram(name, "", obs.DefaultLatencyBuckets).Count
	}
	before := map[string]uint64{}
	for name, n := range counts {
		before[name] = n()
	}
	var stderr bytes.Buffer
	capture(t, func() error {
		if code := runBatch(context.Background(), []string{path}, batchOptions{vdd: 1, sim: true}, &stderr); code != 0 {
			t.Errorf("exit code = %d:\n%s", code, stderr.String())
		}
		return nil
	})
	for name, n := range counts {
		if n() == before[name] {
			t.Errorf("%s did not move", name)
		}
	}
}

// TestDegColumn: the report carries a `deg` column — `-` for genuine
// second-order nodes, the degradation class for RC fallbacks.
func TestDegColumn(t *testing.T) {
	path := writeTree(t)
	out, err := runToString(t, path, batchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deg") || !strings.Contains(out, " -\n") {
		t.Fatalf("deg column missing for healthy tree:\n%s", out)
	}
	rc := filepath.Join(t.TempDir(), "rc.txt")
	if err := os.WriteFile(rc, []byte("s1 - 25 0 50f\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runToString(t, rc, batchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "zero-inductance") {
		t.Fatalf("deg column missing degradation class:\n%s", out)
	}
}
