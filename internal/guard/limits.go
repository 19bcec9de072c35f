package guard

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Limits bounds the size of textual inputs the parsers accept. A zero
// field means "use the default"; the zero value of Limits is therefore the
// default policy. Exceeding any bound fails with an ErrLimit-classed
// error naming the bound, instead of unbounded allocation or bufio's
// unhelpful "token too long".
type Limits struct {
	MaxLineBytes int // longest accepted input line, bytes
	MaxElements  int // circuit elements per deck / parasitics per SPEF file
	MaxNodes     int // distinct circuit nodes per deck
	MaxPWLPoints int // points in one PWL source
	MaxSections  int // sections per RLC tree
	MaxNets      int // *D_NET sections per SPEF file
}

// Default bounds, chosen far above anything the paper's workloads need
// while still small enough that a hostile input cannot exhaust a server:
// a million elements is ~3 orders of magnitude beyond the largest tree in
// the experiments.
const (
	DefaultMaxLineBytes = 1 << 20 // 1 MiB — generous for PWL lines
	DefaultMaxElements  = 1 << 20
	DefaultMaxNodes     = 1 << 20
	DefaultMaxPWLPoints = 1 << 16
	DefaultMaxSections  = 1 << 20
	DefaultMaxNets      = 1 << 16
)

// DefaultLimits is the zero-value policy made explicit.
var DefaultLimits = Limits{
	MaxLineBytes: DefaultMaxLineBytes,
	MaxElements:  DefaultMaxElements,
	MaxNodes:     DefaultMaxNodes,
	MaxPWLPoints: DefaultMaxPWLPoints,
	MaxSections:  DefaultMaxSections,
	MaxNets:      DefaultMaxNets,
}

// WithDefaults returns the limits with every zero field replaced by its
// default.
func (l Limits) WithDefaults() Limits {
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = DefaultMaxLineBytes
	}
	if l.MaxElements <= 0 {
		l.MaxElements = DefaultMaxElements
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultMaxNodes
	}
	if l.MaxPWLPoints <= 0 {
		l.MaxPWLPoints = DefaultMaxPWLPoints
	}
	if l.MaxSections <= 0 {
		l.MaxSections = DefaultMaxSections
	}
	if l.MaxNets <= 0 {
		l.MaxNets = DefaultMaxNets
	}
	return l
}

// NewScanner returns a line scanner over r whose buffer is bounded at
// MaxLineBytes. When the bound is hit the scanner stops with
// bufio.ErrTooLong; translate it with ScanError so callers see ErrLimit.
// The buffer starts at 64 KiB, or smaller when r reports a shorter
// length (strings.Reader, bytes.Reader): one byte more than the input,
// so the scanner reads it all and sees EOF without growing.
func (l Limits) NewScanner(r io.Reader) *bufio.Scanner {
	l = l.WithDefaults()
	sc := bufio.NewScanner(r)
	initial := min(64*1024, l.MaxLineBytes)
	if lr, ok := r.(interface{ Len() int }); ok {
		initial = min(initial, lr.Len()+1)
	}
	sc.Buffer(make([]byte, 0, initial), l.MaxLineBytes)
	return sc
}

// ScanError translates the terminal error of a NewScanner scan loop into
// a typed error: bufio.ErrTooLong becomes ErrLimit naming the bound (line
// is the 1-based number of the offending line), a read failure that
// already carries a class (a reader canceled under guard, say) keeps it,
// any other read failure is passed through as an ErrParse-classed read
// error, and nil stays nil.
func (l Limits) ScanError(op string, line int, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		countLimitTrip("line-bytes")
		return Newf(ErrLimit, op, "input line longer than %d bytes", l.WithDefaults().MaxLineBytes).WithLine(line + 1)
	}
	if class := Class(err); class != nil {
		// Counted where it was made; this only names the reader.
		return &Error{Class: class, Op: op, Err: fmt.Errorf("read: %w", err)}
	}
	return New(ErrParse, op, fmt.Errorf("read: %w", err))
}

// CheckCount returns an ErrLimit-classed error when n exceeds max, using
// what to name the bounded quantity ("elements", "nodes", …).
func CheckCount(op, what string, n, max int) error {
	if n > max {
		countLimitTrip(what)
		return Newf(ErrLimit, op, "%s count %d exceeds limit %d", what, n, max)
	}
	return nil
}
