package main

import (
	"context"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eedtree/internal/engine"
	"eedtree/internal/timing"
)

// TestMain turns the test binary into chipflow when re-exec'd with
// CHIPFLOW_E2E=1; the e2e tests pin the exit-code contract (0 ok,
// 1 runtime or assertion failure, 2 usage) and the printed report.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPFLOW_E2E") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHIPFLOW_E2E=1")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("re-exec failed: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

func TestE2ESynthVerified(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-synth", "500", "-sections", "8", "-j", "4", "-topk", "5", "-verify")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"\n500 nets (0 failed), ", "\nverify: OK", "\nchip: 500 nets, "} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("no %q line in output:\n%s", strings.TrimSpace(want), stdout)
		}
	}
	if rows := criticalRows(stdout); len(rows) != 5 {
		t.Fatalf("%d critical nets, want 5:\n%s", len(rows), stdout)
	}
}

// TestE2ESynthDeterministic: same seed, same report — the generator and
// the pipeline are deterministic end to end, including the verify hash.
// Only the lines that carry wall time, throughput or memory may differ.
func TestE2ESynthDeterministic(t *testing.T) {
	var hashes [2]string
	var reports [2][]string
	for i := range reports {
		code, stdout, stderr := runCLI(t, "-synth", "300", "-sections", "6", "-j", "3", "-seed", "7", "-verify")
		if code != 0 {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
		}
		m := verifyHashRe.FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no verify hash in output:\n%s", stdout)
		}
		if len(criticalRows(stdout)) == 0 {
			t.Fatalf("no critical nets in output:\n%s", stdout)
		}
		hashes[i], reports[i] = m[1], reportLines(stdout)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("verify hashes differ: %q vs %q", hashes[0], hashes[1])
	}
	if a, b := strings.Join(reports[0], "\n"), strings.Join(reports[1], "\n"); a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
}

var verifyHashRe = regexp.MustCompile(`(?m)^verify: OK .*\(hash ([0-9a-f]{16})\)$`)

// reportLines returns chipflow's report without the two lines that carry
// wall time, throughput and memory, which differ from run to run.
func reportLines(stdout string) []string {
	var out []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.Contains(line, " nets/s, ") || strings.HasPrefix(line, "peak heap ") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// criticalRows returns the rows of the report's critical-net table: the
// non-empty lines after its "#" header.
func criticalRows(stdout string) []string {
	_, table, ok := strings.Cut(stdout, "\n# ")
	if !ok {
		return nil
	}
	var rows []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if strings.TrimSpace(line) != "" {
			rows = append(rows, line)
		}
	}
	return rows
}

func TestE2EFileInput(t *testing.T) {
	dir := t.TempDir()
	spefPath := filepath.Join(dir, "d.spef")
	f, err := os.Create(spefPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := genDesign(context.Background(), f, 50, 5, 3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, stdout, stderr := runCLI(t, "-verify", spefPath)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "50 nets (0 failed)") {
		t.Fatalf("output:\n%s", stdout)
	}
}

func TestE2EExitCodes(t *testing.T) {
	// Usage errors.
	for _, args := range [][]string{
		{},                        // no input at all
		{"-synth", "5", "x.spef"}, // both sources
		{"-sections", "0", "-synth", "5"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
	// Runtime failure: unreadable input.
	if code, _, _ := runCLI(t, filepath.Join(t.TempDir(), "missing.spef")); code != 1 {
		t.Fatal("missing input must exit 1")
	}
	// Assertion failures: impossible throughput and RSS bounds.
	if code, _, stderr := runCLI(t, "-synth", "50", "-assert-nps", "1e12"); code != 1 {
		t.Fatalf("throughput assertion: exit %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-synth", "50", "-assert-rss-mb", "1"); code != 1 {
		t.Fatalf("RSS assertion: exit %d, stderr %s", code, stderr)
	}
	// Limit trip is a classed runtime failure.
	code, _, stderr := runCLI(t, "-synth", "50", "-max-nets", "10")
	if code != 1 || !strings.Contains(stderr, "[limit]") {
		t.Fatalf("limit trip: exit %d, stderr %s", code, stderr)
	}
}

// TestE2ETimeoutIsCanceled: a deadline that fires while the generator is
// still writing reaches the parser as a failed read, and is reported as
// canceled, not as a parse error.
func TestE2ETimeoutIsCanceled(t *testing.T) {
	code, _, stderr := runCLI(t, "-synth", "200", "-timeout", "1ns")
	if code != 1 || !strings.Contains(stderr, "[canceled]") {
		t.Fatalf("exit %d, stderr %s; want exit 1 and a [canceled] error", code, stderr)
	}
}

// TestSynthGenParses: the generator's output is valid SPEF the pipeline
// fully accepts, for a spread of sizes including single-section nets.
func TestSynthGenParses(t *testing.T) {
	for _, mean := range []int{1, 2, 13} {
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(genDesign(context.Background(), pw, 40, mean, 11)) }()
		report, stats, err := engine.RunPipeline(context.Background(), pr, engine.PipelineConfig{
			Workers: 2,
			Limits:  limitsFor(config{synth: 40, sections: mean}, 0, 0),
		})
		if err != nil {
			t.Fatalf("mean %d: %v", mean, err)
		}
		if stats.Failed != 0 || report.Nets != 40 {
			t.Fatalf("mean %d: %d ok, %d failed", mean, report.Nets, stats.Failed)
		}
	}
}

// TestNetHasherSensitivity: the verification hash must change when any
// summary field changes by one ulp, and when stream order changes.
func TestNetHasherSensitivity(t *testing.T) {
	base := engine.NetResult{Index: 0, Net: "n0", Summary: timing.NetSummary{
		Net: "n0", Sections: 3, Sinks: 2, MaxDelay: 1e-12, AvgDelay: 0.5e-12,
		CritSink: "s", Stretch: 1.5, PathLen: 2,
	}}
	hash := func(results ...engine.NetResult) uint64 {
		h := newNetHasher()
		for _, r := range results {
			h.observe(r)
		}
		return h.sum()
	}
	other := base
	other.Net, other.Summary.Net = "n1", "n1"
	h0 := hash(base, other)
	if hash(other, base) == h0 {
		t.Fatal("hash ignores stream order")
	}
	bumped := base
	bumped.Summary.MaxDelay = nextUlp(base.Summary.MaxDelay)
	if hash(bumped, other) == h0 {
		t.Fatal("hash ignores a one-ulp MaxDelay change")
	}
}

func nextUlp(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) + 1)
}
