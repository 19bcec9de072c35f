package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const stream = `{"Action":"start","Package":"eedtree"}
{"Action":"output","Package":"eedtree","Output":"goos: linux\n"}
{"Action":"output","Package":"eedtree","Output":"goarch: amd64\n"}
{"Action":"output","Package":"eedtree","Output":"pkg: eedtree\n"}
{"Action":"output","Package":"eedtree","Output":"cpu: Intel\n"}
{"Action":"run","Package":"eedtree","Test":"BenchmarkFoo"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"BenchmarkFoo\n"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"some stray test log\n"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"BenchmarkFoo-8   \t 1000\t 1234 ns/op\t 5.0 ns/section\n"}
{"Action":"output","Package":"eedtree","Output":"PASS\n"}
{"Action":"output","Package":"eedtree","Output":"ok  \teedtree\t1.2s\n"}
{"Action":"pass","Package":"eedtree"}
`

func TestConvertKeepsBenchstatLines(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"goos: linux\n", "goarch: amd64\n", "pkg: eedtree\n", "cpu: Intel\n",
		"BenchmarkFoo-8   \t 1000\t 1234 ns/op\t 5.0 ns/section\n",
		"PASS\n", "ok  \teedtree\t1.2s\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "stray test log") {
		t.Errorf("test noise leaked into the baseline:\n%s", got)
	}
}

// TestConvertJoinsSplitBenchmarkLines: test2json flushes the benchmark name
// before its timings, splitting one text line across two output events; the
// continuation (which has no Benchmark prefix) must still be kept — and a
// split dropped line must stay dropped.
func TestConvertJoinsSplitBenchmarkLines(t *testing.T) {
	const split = `{"Action":"output","Output":"BenchmarkBar-8   \t"}
{"Action":"output","Output":" 500\t 99 ns/op\n"}
{"Action":"output","Output":"    bench_test.go:10: noisy "}
{"Action":"output","Output":"wrapped log line\n"}
{"Action":"output","Output":"PASS\n"}
`
	var out bytes.Buffer
	if err := convert(strings.NewReader(split), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if want := "BenchmarkBar-8   \t 500\t 99 ns/op\n"; !strings.Contains(got, want) {
		t.Errorf("split benchmark line not rejoined, got:\n%s", got)
	}
	if strings.Contains(got, "wrapped log line") {
		t.Errorf("split log line leaked into the baseline:\n%s", got)
	}
}

func TestConvertRejectsMalformedStream(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader("not json\n"), &out); err == nil {
		t.Fatal("malformed input must error")
	}
}

func TestConvertEmptyStream(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(""), &out); err != nil || out.Len() != 0 {
		t.Fatalf("empty stream: err=%v out=%q", err, out.String())
	}
}

// writeStream saves a synthetic test2json baseline with one output event
// per benchmark sample line.
func writeStream(t *testing.T, lines ...string) string {
	t.Helper()
	var b bytes.Buffer
	for _, line := range lines {
		ev, err := json.Marshal(event{Action: "output", Output: line + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ev)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesDeltaTable(t *testing.T) {
	old := writeStream(t,
		"BenchmarkFast-8 \t 100\t 200 ns/op",
		"BenchmarkFast-8 \t 100\t 100 ns/op",
		"BenchmarkFast-8 \t 100\t 120 ns/op", // median 120
		"BenchmarkSlow-8 \t 10\t 1000 ns/op",
		"BenchmarkOldOnly-8 \t 10\t 5 ns/op",
	)
	now := writeStream(t,
		"BenchmarkFast-16 \t 100\t 60 ns/op", // -procs suffix must not split the name
		"BenchmarkSlow-8 \t 10\t 2000 ns/op",
		"BenchmarkNewOnly-8 \t 10\t 7 ns/op",
	)
	var out bytes.Buffer
	if err := compareFiles(old, now, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkFast", "120", "60", "-50.0%",
		"BenchmarkSlow", "1000", "2000", "+100.0%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare table missing %q:\n%s", want, got)
		}
	}
	for _, reject := range []string{"BenchmarkOldOnly", "BenchmarkNewOnly"} {
		if strings.Contains(got, reject) {
			t.Errorf("unshared benchmark %q leaked into the table:\n%s", reject, got)
		}
	}
}

// TestCompareFilesMemoryColumns: B/op and allocs/op get median delta
// columns when both files carry them; a benchmark that lacks them in one
// file shows dashes there.
func TestCompareFilesMemoryColumns(t *testing.T) {
	old := writeStream(t,
		"BenchmarkMem-8 \t 10\t 100 ns/op\t 1000 B/op\t 10 allocs/op",
		"BenchmarkMem-8 \t 10\t 110 ns/op\t 3000 B/op\t 30 allocs/op",
		"BenchmarkMem-8 \t 10\t 120 ns/op\t 2000 B/op\t 20 allocs/op",
		"BenchmarkTimeOnly-8 \t 10\t 50 ns/op",
	)
	now := writeStream(t,
		"BenchmarkMem-8 \t 10\t 100 ns/op\t 500 B/op\t 0 allocs/op",
		"BenchmarkTimeOnly-8 \t 10\t 50 ns/op\t 64 B/op\t 1 allocs/op",
	)
	var out bytes.Buffer
	if err := compareFiles(old, now, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	for _, want := range []string{"old B/op", "new B/op", "old allocs/op", "new allocs/op"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("header lacks %q: %s", want, lines[0])
		}
	}
	mem := strings.Fields(lines[1])
	if want := []string{"BenchmarkMem", "110", "100", "-9.1%", "2000", "500", "-75.0%", "20", "0", "-100.0%"}; strings.Join(mem, " ") != strings.Join(want, " ") {
		t.Errorf("BenchmarkMem row = %v, want %v", mem, want)
	}
	timeOnly := strings.Fields(lines[2])
	if want := []string{"BenchmarkTimeOnly", "50", "50", "+0.0%", "-", "-", "-", "-", "-", "-"}; strings.Join(timeOnly, " ") != strings.Join(want, " ") {
		t.Errorf("BenchmarkTimeOnly row = %v, want %v", timeOnly, want)
	}

	// Without -benchmem on either side the table is the ns/op table.
	out.Reset()
	plain := writeStream(t, "BenchmarkTimeOnly-8 \t 10\t 40 ns/op")
	if err := compareFiles(old, plain, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "B/op") {
		t.Errorf("memory columns shown without memory samples:\n%s", out.String())
	}
}

// TestCompareCommittedBaselines: the committed PR 5 and PR 10 optimizer
// baselines show the incremental sizing benchmark's B/op regression that
// its ns/op hides.
func TestCompareCommittedBaselines(t *testing.T) {
	var out bytes.Buffer
	if err := compareFiles("../../BENCH_PR5.json", "../../BENCH_PR10.json", &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "BenchmarkOptimizeWidthsIncremental" {
			continue
		}
		// ns/op old, new, delta; B/op old, new, delta; allocs/op ...
		if len(f) != 10 || f[4] != "539387" || f[5] != "1789474" || f[6] != "+231.8%" {
			t.Fatalf("OptimizeWidthsIncremental row = %v, want median B/op 539387 → 1789474 (+231.8%%)", f)
		}
		return
	}
	t.Fatalf("no OptimizeWidthsIncremental row:\n%s", out.String())
}

func TestCompareFilesErrors(t *testing.T) {
	withBench := writeStream(t, "BenchmarkFoo-8 \t 10\t 10 ns/op")
	noOverlap := writeStream(t, "BenchmarkBar-8 \t 10\t 10 ns/op")
	empty := writeStream(t, "PASS")
	var out bytes.Buffer
	if err := compareFiles(withBench, noOverlap, &out); err == nil {
		t.Fatal("disjoint baselines must error")
	}
	if err := compareFiles(withBench, empty, &out); err == nil {
		t.Fatal("baseline without benchmarks must error")
	}
	if err := compareFiles(withBench, filepath.Join(t.TempDir(), "absent.json"), &out); err == nil {
		t.Fatal("missing file must error")
	}
}
