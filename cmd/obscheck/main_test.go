package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// stream builds a test2json event stream from benchmark output lines,
// splitting each line across two events the way test2json does (name
// flushed first, timings later).
func stream(t *testing.T, lines ...string) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, line := range lines {
		i := len(line) / 2
		for _, chunk := range []string{line[:i], line[i:] + "\n"} {
			if err := enc.Encode(map[string]string{"Action": "output", "Output": chunk}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

func TestCheckWithinBudget(t *testing.T) {
	in := stream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40400000 ns/op\t      2465 ns/section",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40100000 ns/op\t      2447 ns/section",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40900000 ns/op\t      2496 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op\t      2441 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  39800000 ns/op\t      2429 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40200000 ns/op\t      2453 ns/section",
	)
	var out strings.Builder
	err := check(strings.NewReader(in), &out,
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err != nil {
		t.Fatalf("1%% overhead must pass a 2%% budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "overhead +1.00%") {
		t.Errorf("report missing overhead figure:\n%s", out.String())
	}
	// Baseline quartiles 39.9M and 40.1M: a 0.50% spread, below the
	// 1.00% overhead, so the verdict is resolved.
	if !strings.Contains(out.String(), "(IQR/median 0.50%), overhead") || strings.Contains(out.String(), "within noise") {
		t.Errorf("report must print the baseline spread and no noise verdict:\n%s", out.String())
	}
}

// An overhead smaller than the baseline's own interquartile spread is
// reported as within noise; the budget still decides the exit status.
func TestCheckWithinNoise(t *testing.T) {
	in := stream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40400000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  38000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  42000000 ns/op",
	)
	var out strings.Builder
	if err := check(strings.NewReader(in), &out,
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0); err != nil {
		t.Fatalf("1%% overhead must pass a 2%% budget: %v", err)
	}
	want := "(IQR/median 0.00%), BenchmarkAnalyzeTreeParallelBaseline median 40000000 ns/op (IQR/median 5.00%), overhead +1.00%"
	if !strings.Contains(out.String(), want) || !strings.HasSuffix(out.String(), ", within noise\n") {
		t.Errorf("report must give both spreads and a within-noise verdict:\n%s", out.String())
	}
	err := check(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 0.5)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over budget must fail even within noise, got %v", err)
	}
}

func TestCheckOverBudget(t *testing.T) {
	in := stream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  44000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op",
	)
	err := check(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("10%% overhead must fail a 2%% budget, got %v", err)
	}
}

// The median keeps one outlier sample from failing the gate.
func TestCheckMedianRobustToOutlier(t *testing.T) {
	in := stream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40000000 ns/op",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40100000 ns/op",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  90000000 ns/op", // GC hiccup
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  39900000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40100000 ns/op",
	)
	err := check(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err != nil {
		t.Fatalf("median must shrug off one outlier: %v", err)
	}
}

func TestCheckMissingBenchmark(t *testing.T) {
	in := stream(t, "BenchmarkSomethingElse-8 \t 10\t 100 ns/op")
	err := check(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("missing benchmark must be reported, got %v", err)
	}
}

func TestCheckMalformedJSON(t *testing.T) {
	err := check(strings.NewReader("not json\n"), &strings.Builder{},
		"a", "b", 2.0)
	if err == nil {
		t.Fatal("malformed input must fail")
	}
}
