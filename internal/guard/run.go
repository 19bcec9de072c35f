package guard

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Run executes fn under ctx with panic isolation. Any panic escaping fn is
// recovered and returned as a typed error with the goroutine stack
// captured: runtime faults (index out of range, division by zero, nil
// dereference — the way numeric kernels fail on malformed dimensions)
// become ErrNumeric, explicit panics become ErrInternal. A context that is
// already done short-circuits without calling fn, and a context error
// returned by fn is normalized to ErrCanceled (the cause — e.g.
// context.DeadlineExceeded — stays reachable via errors.Is).
//
// Run guards a single synchronous call; goroutines started by fn are not
// covered (a panic on another goroutine still crashes the process, as in
// all Go programs).
func Run(ctx context.Context, fn func(context.Context) error) (err error) {
	if cerr := Check(ctx); cerr != nil {
		return cerr
	}
	defer func() {
		if v := recover(); v != nil {
			err = fromPanic(v)
		}
	}()
	err = fn(ctx)
	if err != nil && ctx.Err() != nil {
		// The computation stopped because the context fired; report the
		// typed cancellation rather than whatever partial error surfaced.
		return canceled(ctx)
	}
	return err
}

// Check returns nil while ctx is live and an ErrCanceled-classed error
// once it is canceled or past its deadline. Long-running loops call it
// periodically (per time step, per frequency point, per batch of nodes).
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return canceled(ctx)
	default:
		return nil
	}
}

func canceled(ctx context.Context) *Error {
	return New(ErrCanceled, "guard", context.Cause(ctx))
}

// fromPanic converts a recovered panic value into a typed error.
func fromPanic(v any) *Error {
	e := &Error{Class: ErrInternal, Op: "guard", Stack: debug.Stack()}
	switch pv := v.(type) {
	case runtime.Error:
		// Index/slice bounds, integer division by zero, nil dereference:
		// how dense kernels fail when handed inconsistent dimensions.
		e.Class = ErrNumeric
		e.Err = pv
	case error:
		e.Err = pv
	default:
		e.Err = fmt.Errorf("panic: %v", v)
	}
	countError(e.Class)
	return e
}
