package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain turns the test binary into rlcdelay when re-exec'd with
// RLCDELAY_E2E=1, so the exit-code tests below cover the real process
// contract (0 all ok, 1 all failed, 2 usage, 3 partial) end to end.
func TestMain(m *testing.M) {
	if os.Getenv("RLCDELAY_E2E") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// runCLI re-execs this test binary as rlcdelay and returns exit code,
// stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RLCDELAY_E2E=1")
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

func exampleNet(name string) string {
	return filepath.Join("..", "..", "examples", "nets", name)
}

func TestE2EExitCodes(t *testing.T) {
	good := exampleNet("balanced7.tree")
	bad := filepath.Join(t.TempDir(), "missing.tree")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"all_ok", []string{good}, 0},
		{"all_failed", []string{bad}, 1},
		{"no_args", nil, 2},
		{"bad_flag_value", []string{"-j", "-2", good}, 2},
		{"partial_failure", []string{good, bad}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, c.args...)
			if code != c.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.want, stdout, stderr)
			}
			if c.want == 2 && !strings.Contains(stderr, "usage: rlcdelay") {
				t.Fatalf("usage errors must print usage:\n%s", stderr)
			}
		})
	}
}

// batchSummaryRe pins the documented shape of the end-of-batch stderr
// accounting line.
var batchSummaryRe = regexp.MustCompile(
	`rlcdelay: batch: \d+ input\(s\), \d+ failed(?: \((?:[a-z_]+:\d+ ?)+\))?, ` +
		`\d+ node\(s\) degraded to RC in \d+ input\(s\), ` +
		`latency p50=\S+ p99=\S+`)

func TestE2EBatchSummaryFormat(t *testing.T) {
	good := exampleNet("balanced7.tree")
	rc := exampleNet("rcfallback.tree")
	bad := filepath.Join(t.TempDir(), "missing.tree")

	t.Run("clean_batch", func(t *testing.T) {
		code, _, stderr := runCLI(t, good, rc)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		line := lastLine(stderr)
		if !batchSummaryRe.MatchString(line) {
			t.Fatalf("summary line does not match the documented format:\n%s", line)
		}
		if !strings.Contains(line, "2 input(s), 0 failed,") {
			t.Fatalf("clean batch must report 0 failed without a class breakdown:\n%s", line)
		}
		// rcfallback.tree degrades every node; the count must show up.
		if strings.Contains(line, " 0 node(s) degraded") {
			t.Fatalf("degradation accounting missing:\n%s", line)
		}
	})

	t.Run("partial_batch", func(t *testing.T) {
		code, _, stderr := runCLI(t, good, bad)
		if code != 3 {
			t.Fatalf("exit %d, want 3: %s", code, stderr)
		}
		line := lastLine(stderr)
		if !batchSummaryRe.MatchString(line) {
			t.Fatalf("summary line does not match the documented format:\n%s", line)
		}
		if !strings.Contains(line, "1 failed (") {
			t.Fatalf("failures must carry the per-class breakdown:\n%s", line)
		}
	})

	t.Run("single_input_no_summary", func(t *testing.T) {
		code, _, stderr := runCLI(t, good)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if strings.Contains(stderr, "batch:") {
			t.Fatalf("single sequential input must not print a batch summary:\n%s", stderr)
		}
	})

	t.Run("parallel_single_input_summary", func(t *testing.T) {
		code, _, stderr := runCLI(t, "-j", "2", good)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if !batchSummaryRe.MatchString(lastLine(stderr)) {
			t.Fatalf("-j runs must print the batch summary:\n%s", stderr)
		}
	})
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
