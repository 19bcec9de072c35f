package transim

import (
	"context"
	"fmt"
	"math"

	"eedtree/internal/circuit"
	"eedtree/internal/guard"
)

// AdaptiveOptions configures an error-controlled transient run. The
// integrator is trapezoidal; the local truncation error of each candidate
// step h is estimated by Richardson extrapolation (one h step against two
// h/2 steps) and the step is rejected and halved when the estimate
// exceeds Tol, or grown when it is far below. Adaptive stepping costs ~3×
// a fixed step of the same size plus refactorizations on step changes;
// its value is robustness — sharp source edges are resolved finely while
// slow tails take large steps — not raw speed.
type AdaptiveOptions struct {
	Stop        float64 // end time [s], required
	Tol         float64 // relative LTE tolerance; default 1e-4
	InitialStep float64 // first trial step; default Stop/1e4
	MinStep     float64 // refuse to shrink below this; default Stop/1e9
	MaxStep     float64 // never grow beyond this; default Stop/50
	VScale      float64 // voltage scale for the relative error; default 1 V
}

func (o AdaptiveOptions) withDefaults() (AdaptiveOptions, error) {
	if !(o.Stop > 0) {
		return o, fmt.Errorf("transim: adaptive run requires Stop > 0, got %g", o.Stop)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.InitialStep <= 0 {
		o.InitialStep = o.Stop / 1e4
	}
	if o.MinStep <= 0 {
		o.MinStep = o.Stop / 1e9
	}
	if o.MaxStep <= 0 {
		o.MaxStep = o.Stop / 50
	}
	if o.MinStep > o.InitialStep || o.InitialStep > o.MaxStep {
		return o, fmt.Errorf("transim: need MinStep ≤ InitialStep ≤ MaxStep, got %g ≤ %g ≤ %g",
			o.MinStep, o.InitialStep, o.MaxStep)
	}
	if o.VScale <= 0 {
		o.VScale = 1
	}
	return o, nil
}

// AdaptiveStats reports what the step controller did.
type AdaptiveStats struct {
	Accepted, Rejected int
	MinStepUsed        float64
	MaxStepUsed        float64
}

// SimulateAdaptive runs an error-controlled trapezoidal transient
// analysis. The returned Result has non-uniform time points.
func SimulateAdaptive(d *circuit.Deck, opt AdaptiveOptions) (*Result, *AdaptiveStats, error) {
	return SimulateAdaptiveCtx(context.Background(), d, opt)
}

// SimulateAdaptiveCtx is SimulateAdaptive under a context: cancellation
// (or a deadline) is honored between trial steps, returning a
// guard.ErrCanceled-classed error within one step of the context firing.
func SimulateAdaptiveCtx(ctx context.Context, d *circuit.Deck, opt AdaptiveOptions) (*Result, *AdaptiveStats, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	e, err := newEngine(d, Trapezoidal)
	if err != nil {
		return nil, nil, err
	}
	res := newResult(d, e, 4096)
	stats := &AdaptiveStats{MinStepUsed: math.Inf(1)}
	defer func() {
		// Counted once per run from the controller stats — the trial-step
		// loop itself carries no instrumentation.
		mAdaptiveAccepted.Add(uint64(stats.Accepted))
		mAdaptiveRejected.Add(uint64(stats.Rejected))
	}()
	h := opt.InitialStep
	xFull := make([]float64, e.sys.Size())
	for e.t < opt.Stop {
		if err := guard.Check(ctx); err != nil {
			return nil, nil, err
		}
		if e.t+h > opt.Stop {
			h = opt.Stop - e.t
		}
		start := e.save()
		// Full step.
		if err := e.setStep(h); err != nil {
			return nil, nil, err
		}
		e.step()
		copy(xFull, e.x)
		// Two half steps from the same state.
		e.restore(start)
		if err := e.setStep(h / 2); err != nil {
			return nil, nil, err
		}
		e.step()
		e.step()
		// Richardson LTE estimate over the node voltages (trapezoidal is
		// O(h²)-accurate, so err(full) ≈ (x_full − x_half)·4/3; the plain
		// difference is a conservative proxy).
		est := 0.0
		for i := 0; i < e.sys.NumNodes(); i++ {
			scale := math.Max(math.Abs(e.x[i]), opt.VScale)
			if d := math.Abs(xFull[i]-e.x[i]) / scale; d > est {
				est = d
			}
		}
		switch {
		case est > opt.Tol && h > opt.MinStep:
			// Reject: halve and retry.
			e.restore(start)
			h = math.Max(h/2, opt.MinStep)
			stats.Rejected++
		default:
			// Accept the (more accurate) half-step solution.
			res.record(e)
			stats.Accepted++
			if h < stats.MinStepUsed {
				stats.MinStepUsed = h
			}
			if h > stats.MaxStepUsed {
				stats.MaxStepUsed = h
			}
			if est < opt.Tol/8 {
				h = math.Min(2*h, opt.MaxStep)
			}
			if len(res.Time) > maxSteps {
				return nil, nil, guard.Newf(guard.ErrLimit, "transim",
					"adaptive run exceeded %d samples; loosen Tol", maxSteps)
			}
		}
	}
	return res, stats, nil
}
