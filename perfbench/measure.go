package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase is the accounting of one timed phase: whole rounds of ops until
// the run length has passed. CPU, allocation and GC are deltas over the
// phase alone. The phase is cut into windows of whole rounds, about
// windowSeconds each, for the per-window medians.
type phase struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration // process user+sys
	alloc   uint64        // bytes, MemStats.TotalAlloc delta
	gcs     uint32        // MemStats.NumGC delta
	steal   float64       // machine steal share, /proc/stat
	lat     []time.Duration
	windows []window
}

// windowSeconds is the least length of a window. A chip_stream pass or a
// big_tree round takes about a second, so each window holds whole rounds
// of the same work.
const windowSeconds = 1.0

// window is a run of whole rounds: its ops are lat[from:to].
type window struct {
	from, to  int
	wall, cpu time.Duration
	steal     float64
}

type meter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
	st0  cpuStat
}

func startMeter() *meter {
	m := &meter{st0: readCPUStat(), cpu0: processCPU()}
	runtime.ReadMemStats(&m.ms0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(ph *phase) {
	ph.wall = time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.cpu = processCPU() - m.cpu0
	ph.alloc = ms.TotalAlloc - m.ms0.TotalAlloc
	ph.gcs = ms.NumGC - m.ms0.NumGC
	ph.steal = readCPUStat().stealSince(m.st0)
}

// timedPhase runs whole rounds until seconds have passed, closing a
// window after each round that ends at least windowSeconds after the
// window began.
func timedPhase(w workload, seconds float64) (*phase, error) {
	ph := &phase{lat: make([]time.Duration, 0, 1<<16)}
	m := startMeter()
	win := window{}
	wt0, wcpu0, wst0 := m.t0, m.cpu0, m.st0
	for {
		if err := w.round(&ph.lat); err != nil {
			ph.ops = int64(len(ph.lat))
			return ph, err
		}
		now := time.Now()
		last := now.Sub(m.t0).Seconds() >= seconds
		if last || now.Sub(wt0).Seconds() >= windowSeconds {
			cpu, st := processCPU(), readCPUStat()
			win.to, win.wall, win.cpu, win.steal = len(ph.lat), now.Sub(wt0), cpu-wcpu0, st.stealSince(wst0)
			ph.windows = append(ph.windows, win)
			win = window{from: len(ph.lat)}
			wt0, wcpu0, wst0 = now, cpu, st
		}
		if last {
			break
		}
	}
	m.stop(ph)
	ph.ops = int64(len(ph.lat))
	return ph, nil
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// perOpUS is the phase's wall time per op in microseconds.
func (ph *phase) perOpUS() float64 { return ph.wall.Seconds() * 1e6 / float64(ph.ops) }

// endToEnd derives the gated end-to-end metrics of an untraced phase:
// CPU per op as the median over the windows, allocation exact over the
// whole phase, the process's peak RSS, and the set-up CPU time.
func (ph *phase) endToEnd(setupS float64) []namedValue {
	var cpu []float64
	for _, w := range ph.windowStats() {
		cpu = append(cpu, w.cpu)
	}
	return []namedValue{
		{"cpu_us_per_op", median(cpu), "us"},
		{"alloc_kib_per_op", float64(ph.alloc) / 1024 / float64(ph.ops), "KiB"},
		{"peak_rss_mib", float64(peakRSS()) / (1 << 20), "MiB"},
		{"setup_s", setupS, "s"},
	}
}

// wallFigures derives the wall-clock figures of an untraced phase, each
// the median over the windows. Other tenants' CPU steal moves them by up
// to a factor of two on a shared machine, so they are printed with every
// run and kept as ungated metrics of the traced run.
func (ph *phase) wallFigures() []namedValue {
	var rate, p50, p99 []float64
	for _, w := range ph.windowStats() {
		rate, p50, p99 = append(rate, w.rate), append(p50, w.p50), append(p99, w.p99)
	}
	return []namedValue{
		{"wall.throughput", median(rate), "1/s"},
		{"wall.latency_p50_us", median(p50), "us"},
		{"wall.latency_p99_us", median(p99), "us"},
	}
}

type winStat struct {
	ops                        int
	rate, p50, p99, cpu, steal float64
}

func (ph *phase) windowStats() []winStat {
	var out []winStat
	for _, w := range ph.windows {
		ops := w.to - w.from
		sorted := append([]time.Duration(nil), ph.lat[w.from:w.to]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out = append(out, winStat{ops, float64(ops) / w.wall.Seconds(), quantile(sorted, 0.50),
			quantile(sorted, 0.99), w.cpu.Seconds() * 1e6 / float64(ops), w.steal})
	}
	return out
}

// printWindows prints one diagnostic line per window, with the machine's
// steal share in it.
func (ph *phase) printWindows() {
	for i, w := range ph.windowStats() {
		fmt.Printf("  window %2d: %6d ops %12.2f 1/s  p50 %12.2f us  p99 %12.2f us  cpu %12.2f us/op  steal %5.1f%%\n",
			i, w.ops, w.rate, w.p50, w.p99, w.cpu, 100*w.steal)
	}
}

// quantile interpolates the q-quantile of sorted durations, in µs.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return us(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return us(sorted[i])*(1-f) + us(sorted[i+1])*f
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the user+sys CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's VmHWM in bytes.
func peakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseUint(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// cpuStat is the machine-wide "cpu" line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var st cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func (s cpuStat) stealSince(s0 cpuStat) float64 {
	if s.total <= s0.total {
		return 0
	}
	return float64(s.steal-s0.steal) / float64(s.total-s0.total)
}

// allocMeter measures the bytes and objects one call allocates; the
// call must run alone on the process.
type allocMeter struct{ a, b runtime.MemStats }

func (m *allocMeter) measure(fn func()) (bytes, objects uint64) {
	runtime.ReadMemStats(&m.a)
	fn()
	runtime.ReadMemStats(&m.b)
	return m.b.TotalAlloc - m.a.TotalAlloc, m.b.Mallocs - m.a.Mallocs
}

func opErr(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}
