// Command bench2text converts a `go test -json` event stream (stdin) into
// the plain benchmark text format that benchstat consumes (stdout). It
// keeps the machine-readable JSON baseline and the benchstat baseline in
// lockstep from a single benchmark run:
//
//	go test -run=NONE -bench=. -json . > bench-baseline.json
//	bench2text < bench-baseline.json > bench-baseline.txt
//	# later: benchstat bench-baseline.txt new.txt
//
// Only benchmark-relevant output events pass through: the goos/goarch/pkg/
// cpu header, Benchmark result lines (including their wrapped continuation
// metrics), and the PASS/ok trailer benchstat tolerates. Test logs and
// progress events are dropped.
//
// With -compare, bench2text instead reads two saved JSON baselines and
// prints a median delta table for the benchmarks they share: ns/op, plus
// B/op and allocs/op when both baselines were run with -benchmem:
//
//	bench2text -compare BENCH_PR5.json BENCH_PR10.json
//
// This is how the repository's committed BENCH_PR<n> artifacts are read
// against each other across PRs without needing benchstat installed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// event is the subset of the test2json schema bench2text needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

func main() {
	compareMode := flag.Bool("compare", false,
		"compare two saved baselines: bench2text -compare old.json new.json")
	flag.Parse()
	var err error
	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2text -compare old.json new.json")
			os.Exit(2)
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	} else {
		err = convert(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2text: %v\n", err)
		os.Exit(1)
	}
}

// perOp are the per-op metrics -compare tabulates, in column order.
// ns/op is always shown; B/op and allocs/op (go test -benchmem) show when
// both files carry them for some shared benchmark.
var perOp = []string{"ns/op", "B/op", "allocs/op"}

// compareFiles prints a median delta table of the per-op metrics for the
// benchmark names present in both saved test2json baselines.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldSamples, err := benchSamples(oldPath)
	if err != nil {
		return err
	}
	newSamples, err := benchSamples(newPath)
	if err != nil {
		return err
	}
	var shared []string
	for name := range oldSamples {
		if _, ok := newSamples[name]; ok {
			shared = append(shared, name)
		}
	}
	if len(shared) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	sort.Strings(shared)
	both := func(name, unit string) bool {
		return len(oldSamples[name][unit]) > 0 && len(newSamples[name][unit]) > 0
	}
	cols := []string{"ns/op"}
	for _, unit := range perOp[1:] {
		for _, name := range shared {
			if both(name, unit) {
				cols = append(cols, unit)
				break
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, unit := range cols {
		fmt.Fprintf(tw, "\told %s\tnew %s\tdelta", unit, unit)
	}
	fmt.Fprintln(tw)
	for _, name := range shared {
		fmt.Fprint(tw, name)
		for _, unit := range cols {
			if !both(name, unit) {
				fmt.Fprint(tw, "\t-\t-\t-")
				continue
			}
			o := median(oldSamples[name][unit])
			n := median(newSamples[name][unit])
			fmt.Fprintf(tw, "\t%.0f\t%.0f\t%s", o, n, delta(o, n))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// delta is the relative change from o to n in percent; "-" when o is 0
// and n is not (a new allocation, say, has no ratio).
func delta(o, n float64) string {
	if o == 0 {
		if n == 0 {
			return "+0.0%"
		}
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

// benchSamples extracts the per-op samples of each benchmark, keyed by
// name (the -procs suffix stripped, so baselines from different
// GOMAXPROCS line up) and then by unit, from a saved test2json stream.
// Result lines without ns/op are skipped.
func benchSamples(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Reuse the benchstat distillation, which already reassembles result
	// lines test2json split across events, then parse its text output.
	var text strings.Builder
	if err := convert(f, &text); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	samples := make(map[string]map[string][]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		vals := make(map[string]float64)
		for i := 2; i < len(fields); i++ {
			if !slices.Contains(perOp, fields[i]) {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s in %q: %w", path, fields[i], line, err)
			}
			vals[fields[i]] = v
		}
		if _, ok := vals["ns/op"]; !ok {
			continue // name-only line or a result without timings
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if samples[name] == nil {
			samples[name] = make(map[string][]float64)
		}
		for unit, v := range vals {
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return samples, nil
}

// median of the samples; the mean of the central pair for even counts,
// matching benchstat's summary statistic closely enough for delta tables.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func convert(r io.Reader, w io.Writer) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	out := bufio.NewWriter(w)
	defer out.Flush()
	// test2json splits a single text line across events when the bench
	// name is flushed before its timings ("BenchmarkFoo \t" then
	// " 100\t 12 ns/op\n"), so a continuation event inherits the keep/drop
	// decision made at its line's start.
	kept, midline := false, false
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("malformed test2json line %q: %w", in.Text(), err)
		}
		if ev.Action != "output" {
			continue
		}
		decide := keep(ev.Output)
		if midline {
			decide = kept
		}
		if decide {
			if _, err := out.WriteString(ev.Output); err != nil {
				return err
			}
		}
		kept = decide
		midline = !strings.HasSuffix(ev.Output, "\n")
	}
	return in.Err()
}

// keep reports whether an output line belongs in a benchstat baseline.
func keep(s string) bool {
	for _, prefix := range []string{
		"goos:", "goarch:", "pkg:", "cpu:",
		"Benchmark",
		"PASS", "ok ",
	} {
		if strings.HasPrefix(s, prefix) {
			return true
		}
	}
	// Benchmark result lines report extra metrics (e.g. ns/section) on the
	// same line; wrapped sub-benchmark names are always Benchmark-prefixed,
	// so nothing else is needed.
	return false
}
