package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestLabel(t *testing.T) {
	cases := []struct{ name, key, value, want string }{
		{"m_total", "class", "parse", `m_total{class="parse"}`},
		{"m_total", "k", `a"b`, `m_total{k="a\"b"}`},
		{"m_total", "k", `a\b`, `m_total{k="a\\b"}`},
	}
	for _, c := range cases {
		if got := Label(c.name, c.key, c.value); got != c.want {
			t.Errorf("Label(%q,%q,%q) = %q, want %q", c.name, c.key, c.value, got, c.want)
		}
	}
	if got := familyOf(`m_total{class="parse"}`); got != "m_total" {
		t.Errorf("familyOf = %q, want m_total", got)
	}
	if got := familyOf("plain"); got != "plain" {
		t.Errorf("familyOf(plain) = %q", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c_total", "help")
	c2 := r.Counter("c_total", "ignored on second call")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	g1 := r.Gauge("g", "help")
	if g1 != r.Gauge("g", "") {
		t.Fatal("same name must return the same gauge")
	}
	h1 := r.Histogram("h", "help", []int64{1, 2})
	if h1 != r.Histogram("h", "", nil) {
		t.Fatal("same name must return the same histogram")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestGaugeOps(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if v := g.Value(); v != 2 {
		t.Fatalf("gauge = %d, want 2", v)
	}
	if g.Name() != "g" {
		t.Fatalf("Name() = %q", g.Name())
	}
}

// TestRegistryConcurrency hammers get-or-create and the hot-path mutators
// from many goroutines; run with -race this verifies the lock-free design.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("c_total", "h").Inc()
				r.Gauge("g", "h").Add(1)
				r.Histogram("h", "h", DefaultLatencyBuckets).Observe(int64(j))
			}
		}()
	}
	// A concurrent reader must never block or race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	const want = goroutines * iters
	if v := r.Counter("c_total", "h").Value(); v != want {
		t.Fatalf("counter = %d, want %d", v, want)
	}
	if v := r.Gauge("g", "h").Value(); v != want {
		t.Fatalf("gauge = %d, want %d", v, want)
	}
	if n := r.Histogram("h", "h", nil).Count(); n != want {
		t.Fatalf("histogram count = %d, want %d", n, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram("h", "help", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Buckets are (≤10], (10,100], (100,+Inf): 2, 2, 2.
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if s.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.counts[i], w)
		}
	}
	if s.count != 6 {
		t.Errorf("count = %d, want 6", s.count)
	}
	if wantSum := int64(5 + 10 + 11 + 100 + 101 + 1e9); s.sum != wantSum {
		t.Errorf("sum = %d, want %d", s.sum, wantSum)
	}
	if h.Count() != 6 || h.Sum() != s.sum {
		t.Errorf("Count/Sum accessors disagree with snapshot")
	}
}
