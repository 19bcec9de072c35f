// Command obscheck enforces the observability overhead budget. It reads a
// `go test -json` event stream (stdin) from a run of the paired overhead
// benchmarks,
//
//	go test -run=NONE -bench 'BenchmarkAnalyzeTreeParallel$|BenchmarkAnalyzeTreeParallelBaseline$' \
//	    -count=5 -json . | obscheck -max 2
//
// extracts every ns/op sample of the instrumented benchmark
// (BenchmarkAnalyzeTreeParallel) and its uninstrumented twin
// (BenchmarkAnalyzeTreeParallelBaseline), compares their medians, and
// exits non-zero when the instrumented median exceeds the baseline median
// by more than -max percent. `make obs-check` wires it up.
//
// Medians across -count runs keep one noisy sample from failing the gate;
// -count of at least 3 is recommended. Each side's interquartile range
// over its median is printed beside it, and the verdict says "within
// noise" when the overhead is smaller than the baseline's spread; the
// budget alone decides the exit status.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	maxPct := flag.Float64("max", 2.0, "maximum tolerated overhead, percent")
	instr := flag.String("bench", "BenchmarkAnalyzeTreeParallel", "instrumented benchmark name")
	base := flag.String("baseline", "BenchmarkAnalyzeTreeParallelBaseline", "baseline benchmark name")
	flag.Parse()
	if err := check(os.Stdin, os.Stdout, *instr, *base, *maxPct); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		os.Exit(1)
	}
}

// event is the subset of the test2json schema obscheck needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line: name (with the -GOMAXPROCS
// suffix go test appends), iteration count, ns/op. test2json may split one
// text line across events, so matching happens on the reassembled stream,
// not per event.
var (
	benchLine   = regexp.MustCompile(`(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)
	procsSuffix = regexp.MustCompile(`-\d+$`)
)

func check(r io.Reader, w io.Writer, instr, base string, maxPct float64) error {
	var text strings.Builder
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("malformed test2json line %q: %w", in.Text(), err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	samples := map[string][]float64{}
	for _, m := range benchLine.FindAllStringSubmatch(text.String(), -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op in %q: %w", m[0], err)
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		samples[name] = append(samples[name], v)
	}
	iv, ok := samples[instr]
	if !ok {
		return fmt.Errorf("no samples for %s (have %s)", instr, names(samples))
	}
	bv, ok := samples[base]
	if !ok {
		return fmt.Errorf("no samples for %s (have %s)", base, names(samples))
	}
	im, bm := median(iv), median(bv)
	if bm <= 0 {
		return fmt.Errorf("nonsense baseline median %g ns/op", bm)
	}
	pct := 100 * (im - bm) / bm
	is, bs := spread(iv), spread(bv)
	noise := ""
	if math.Abs(pct) < bs {
		noise = ", within noise"
	}
	fmt.Fprintf(w, "obscheck: %s median %.0f ns/op (IQR/median %.2f%%), %s median %.0f ns/op (IQR/median %.2f%%), overhead %+.2f%% (budget %.2f%%, %d+%d samples)%s\n",
		instr, im, is, base, bm, bs, pct, maxPct, len(iv), len(bv), noise)
	if pct > maxPct {
		return fmt.Errorf("instrumentation overhead %.2f%% exceeds the %.2f%% budget", pct, maxPct)
	}
	return nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v, interpolating linearly between
// the two nearest order statistics.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spread is the interquartile range of v as a percentage of its median:
// an overhead smaller than the baseline's spread cannot be told apart
// from run-to-run noise.
func spread(v []float64) float64 {
	return 100 * (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

func names(m map[string][]float64) string {
	var ns []string
	for k := range m {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	if len(ns) == 0 {
		return "no benchmarks at all"
	}
	return strings.Join(ns, ", ")
}
