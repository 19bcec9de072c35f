package guard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestErrorClassMatching(t *testing.T) {
	cause := fmt.Errorf("unexpected token %q", "X")
	err := New(ErrParse, "circuit.ParseDeck", cause).WithLine(7).WithNode("n3")

	if !errors.Is(err, ErrParse) {
		t.Fatal("errors.Is(err, ErrParse) = false")
	}
	for _, other := range []error{ErrTopology, ErrNumeric, ErrCanceled, ErrLimit, ErrInternal} {
		if errors.Is(err, other) {
			t.Fatalf("error matched foreign class %v", other)
		}
	}
	if !errors.Is(err, cause) {
		t.Fatal("cause not reachable through Unwrap")
	}
	var ge *Error
	if !errors.As(err, &ge) {
		t.Fatal("errors.As(*guard.Error) failed")
	}
	if ge.Line != 7 || ge.Node != "n3" || ge.Op != "circuit.ParseDeck" {
		t.Fatalf("context lost: %+v", ge)
	}
	msg := err.Error()
	for _, want := range []string{"circuit.ParseDeck", "line 7", `"n3"`, "parse error", "unexpected token"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestClassAndClassName(t *testing.T) {
	if Class(nil) != nil || ClassName(nil) != "" {
		t.Fatal("nil error should have no class")
	}
	if got := ClassName(fmt.Errorf("plain")); got != "error" {
		t.Fatalf("ClassName(plain) = %q", got)
	}
	cases := map[string]error{
		"parse": ErrParse, "topology": ErrTopology, "numeric": ErrNumeric,
		"canceled": ErrCanceled, "limit": ErrLimit, "internal": ErrInternal,
	}
	for name, class := range cases {
		wrapped := fmt.Errorf("outer: %w", New(class, "op", nil))
		if Class(wrapped) != class {
			t.Errorf("Class lost through wrapping for %s", name)
		}
		if got := ClassName(wrapped); got != name {
			t.Errorf("ClassName = %q, want %q", got, name)
		}
	}
}

func TestRunConvertsRuntimePanicToNumeric(t *testing.T) {
	err := Run(context.Background(), func(context.Context) error {
		var xs []float64
		_ = xs[3] // index out of range
		return nil
	})
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("runtime panic should be ErrNumeric, got %v", err)
	}
	var ge *Error
	if !errors.As(err, &ge) || len(ge.Stack) == 0 {
		t.Fatal("recovered panic should carry a stack")
	}
}

func TestRunConvertsExplicitPanicToInternal(t *testing.T) {
	err := Run(context.Background(), func(context.Context) error {
		panic("lina: invalid dimensions 0x0")
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("explicit panic should be ErrInternal, got %v", err)
	}
	if !strings.Contains(err.Error(), "invalid dimensions") {
		t.Fatalf("panic message lost: %v", err)
	}
	var ge *Error
	if !errors.As(err, &ge) || len(ge.Stack) == 0 {
		t.Fatalf("recovered panic lacks its stack: %+v", ge)
	}
}

func TestRunPassesThroughErrorsAndResults(t *testing.T) {
	sentinel := errors.New("boom")
	if err := Run(context.Background(), func(context.Context) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if err := Run(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

func TestRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Run(ctx, func(context.Context) error { called = true; return nil })
	if called {
		t.Fatal("fn ran under an already-canceled context")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestRunNormalizesDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Run(ctx, func(ctx context.Context) error { return Check(ctx) })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

func TestCheck(t *testing.T) {
	if err := Check(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if err := Check(nil); err != nil { //nolint:staticcheck // nil tolerance is the point
		t.Fatalf("nil context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Check(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context: %v", err)
	}
}

func TestLimitsScannerBoundsLineLength(t *testing.T) {
	lim := Limits{MaxLineBytes: 64}
	long := strings.Repeat("x", 200)
	sc := lim.NewScanner(strings.NewReader("short line\n" + long + "\n"))
	lines := 0
	for sc.Scan() {
		lines++
	}
	err := lim.ScanError("test.Parse", lines, sc.Err())
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("overlong line should be ErrLimit, got %v", err)
	}
	if !strings.Contains(err.Error(), "64 bytes") {
		t.Fatalf("bound not named: %v", err)
	}
	if lines != 1 {
		t.Fatalf("scanned %d lines before failing, want 1", lines)
	}
}

func TestLimitsScannerPassesBoundedInput(t *testing.T) {
	var lim Limits // zero value = defaults
	sc := lim.NewScanner(strings.NewReader("a\nb\nc\n"))
	n := 0
	for sc.Scan() {
		n++
	}
	if err := lim.ScanError("test.Parse", n, sc.Err()); err != nil {
		t.Fatalf("clean input: %v", err)
	}
	if n != 3 {
		t.Fatalf("scanned %d lines, want 3", n)
	}
}

func TestScanErrorPassesThroughReadFailure(t *testing.T) {
	var lim Limits
	ioErr := errors.New("disk on fire")
	err := lim.ScanError("test.Parse", 3, ioErr)
	if !errors.Is(err, ErrParse) || !errors.Is(err, ioErr) {
		t.Fatalf("got %v", err)
	}
	if errors.Is(err, bufio.ErrTooLong) {
		t.Fatal("plain read error misclassified as too-long")
	}
	// A read that failed with a classed error, such as a reader canceled
	// under guard, keeps its class.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, readErr := range []error{Check(ctx), fmt.Errorf("wrapped: %w", Check(ctx)), New(ErrLimit, "reader", ioErr)} {
		err := lim.ScanError("test.Parse", 3, readErr)
		if Class(err) != Class(readErr) || !errors.Is(err, readErr) || !strings.HasPrefix(err.Error(), "test.Parse: ") {
			t.Errorf("ScanError(%v) = %v, want class %v, the read error wrapped and the parser named",
				readErr, err, Class(readErr))
		}
	}
}

func TestCheckCount(t *testing.T) {
	if err := CheckCount("op", "elements", 10, 10); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	err := CheckCount("op", "elements", 11, 10)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("over the bound: %v", err)
	}
	if !strings.Contains(err.Error(), "elements") {
		t.Fatalf("quantity not named: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	l := Limits{MaxLineBytes: 128}.WithDefaults()
	if l.MaxLineBytes != 128 {
		t.Fatal("explicit field overwritten")
	}
	if l.MaxElements != DefaultMaxElements || l.MaxNets != DefaultMaxNets {
		t.Fatal("zero fields not defaulted")
	}
}
