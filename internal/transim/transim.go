// Package transim is a SPICE-class transient simulator for linear
// circuits (R, L, C, K couplings, independent V sources) built on the MNA
// formulation of internal/mna. It serves as this library's golden
// reference in place of the proprietary IBM AS/X simulator the paper
// compares against: for linear RLC circuits any convergent implicit
// integrator reproduces the same waveforms up to discretization error.
//
// Capacitors and inductors are replaced by their discrete companion models
// each time step. Two integration methods are provided — trapezoidal
// (second-order accurate, the default, preserves ringing amplitude) and
// backward Euler (first-order, numerically damping) — and two drivers:
// fixed-step Simulate and error-controlled SimulateAdaptive, which adjusts
// the step from a Richardson (step-halving) estimate of the local
// truncation error.
package transim

import (
	"context"
	"fmt"
	"math"

	"eedtree/internal/circuit"
	"eedtree/internal/guard"
	"eedtree/internal/lina"
	"eedtree/internal/mna"
	"eedtree/internal/waveform"
)

// Method selects the implicit integration scheme.
type Method int

const (
	// Trapezoidal integration: second-order accurate; preserves ringing
	// amplitude of underdamped RLC circuits well.
	Trapezoidal Method = iota
	// BackwardEuler integration: first-order; introduces artificial
	// damping (useful as a cross-check, not as the reference).
	BackwardEuler
)

func (m Method) String() string {
	switch m {
	case Trapezoidal:
		return "trapezoidal"
	case BackwardEuler:
		return "backward-euler"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// maxSteps bounds the memory used by one simulation (every node and branch
// waveform is stored at every step).
const maxSteps = 2_000_000

// Options configures a fixed-step transient run. If Step/Stop are zero
// they are taken from the deck's .tran directive.
type Options struct {
	Method Method
	Step   float64 // time step [s]
	Stop   float64 // end time [s]
}

// Result holds the simulated waveforms. Time points are uniform for
// Simulate and non-uniform for SimulateAdaptive.
type Result struct {
	Deck *circuit.Deck
	Time []float64

	nodeV   [][]float64 // [nodeID-1][sample]
	branchI [][]float64 // [branch][sample]
	sys     *mna.System
}

// Node returns the voltage waveform at the named node.
func (r *Result) Node(name string) (*waveform.Waveform, error) {
	id, ok := r.Deck.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("transim: unknown node %q", name)
	}
	return r.NodeByID(id)
}

// NodeByID returns the voltage waveform at a node.
func (r *Result) NodeByID(id circuit.NodeID) (*waveform.Waveform, error) {
	if id == circuit.Ground {
		return nil, fmt.Errorf("transim: ground waveform is identically zero")
	}
	if int(id) <= 0 || int(id) > len(r.nodeV) {
		return nil, fmt.Errorf("transim: node id %d out of range", id)
	}
	return waveform.New(r.Time, r.nodeV[id-1])
}

// BranchCurrent returns the current waveform through the named V source or
// inductor (flowing from its first to its second node).
func (r *Result) BranchCurrent(elemName string) (*waveform.Waveform, error) {
	for i, e := range r.Deck.Elements {
		if e.Name() != elemName {
			continue
		}
		k := r.sys.BranchIndex(i)
		if k < 0 {
			return nil, fmt.Errorf("transim: element %q has no branch current", elemName)
		}
		return waveform.New(r.Time, r.branchI[k-r.sys.NumNodes()])
	}
	return nil, fmt.Errorf("transim: unknown element %q", elemName)
}

// --- stepping engine ---

type capState struct {
	el  *circuit.Capacitor
	geq float64
	v   float64 // element voltage at the previous step
	i   float64 // element current at the previous step (trapezoidal)
}

type indState struct {
	el  *circuit.Inductor
	k   int     // branch unknown index
	req float64 // companion "resistance"
	v   float64 // element voltage at the previous step (trapezoidal)
}

type srcState struct {
	el *circuit.VSource
	k  int
}

type coupState struct {
	k1, k2 int
	m      float64 // mutual inductance
	reqM   float64 // companion cross term for the current step
}

// engine advances one linear circuit through time with companion models.
// Element classification is step-independent; setStep assembles and
// factors the constant LHS for a given h.
type engine struct {
	sys   *mna.System
	trap  bool
	h     float64
	lu    *lina.LU
	caps  []*capState
	inds  []*indState
	srcs  []*srcState
	coups []*coupState
	x     []float64
	t     float64
	rhs   []float64
}

func newEngine(d *circuit.Deck, method Method) (*engine, error) {
	switch method {
	case Trapezoidal, BackwardEuler:
	default:
		return nil, fmt.Errorf("transim: unknown method %v", method)
	}
	sys, err := mna.New(d)
	if err != nil {
		return nil, err
	}
	e := &engine{
		sys:  sys,
		trap: method == Trapezoidal,
		x:    make([]float64, sys.Size()),
		rhs:  make([]float64, sys.Size()),
	}
	for i, el := range d.Elements {
		switch el := el.(type) {
		case *circuit.Resistor:
			// stamped in setStep
		case *circuit.Capacitor:
			e.caps = append(e.caps, &capState{el: el})
		case *circuit.Inductor:
			e.inds = append(e.inds, &indState{el: el, k: sys.BranchIndex(i)})
		case *circuit.VSource:
			e.srcs = append(e.srcs, &srcState{el: el, k: sys.BranchIndex(i)})
		case *circuit.Coupling:
			k1, k2, m, cerr := sys.CouplingBranches(el)
			if cerr != nil {
				return nil, cerr
			}
			e.coups = append(e.coups, &coupState{k1: k1, k2: k2, m: m})
		default:
			return nil, fmt.Errorf("transim: unsupported element %T", el)
		}
	}
	// Initial condition: DC operating point at t = 0⁻ (sources evaluated
	// just before time zero), so that a zero-delay step starts the circuit
	// from its V0 state — the convention of the paper's step responses.
	op, err := sys.OperatingPoint(math.Nextafter(0, -1))
	if err != nil {
		return nil, err
	}
	copy(e.x[:sys.NumNodes()], op.V[1:])
	copy(e.x[sys.NumNodes():], op.I)
	// Element states at t = 0: steady state ⇒ capacitor currents and
	// inductor voltages are zero.
	for _, cs := range e.caps {
		cs.v = op.VoltageAt(cs.el.A) - op.VoltageAt(cs.el.B)
		cs.i = 0
	}
	for _, is := range e.inds {
		is.v = 0
	}
	return e, nil
}

// setStep assembles and factors the LHS matrix for time step h.
func (e *engine) setStep(h float64) error {
	if !(h > 0) {
		return fmt.Errorf("transim: invalid step %g", h)
	}
	e.h = h
	sys := e.sys
	a := lina.NewMatrix(sys.Size(), sys.Size())
	for i := 0; i < sys.NumNodes(); i++ {
		a.Add(i, i, mna.Gmin)
	}
	for i, el := range sys.Deck.Elements {
		switch el := el.(type) {
		case *circuit.Resistor:
			sys.StampConductance(a, el.A, el.B, 1/el.R)
		case *circuit.VSource:
			sys.StampBranch(a, el.Pos, el.Neg, sys.BranchIndex(i))
		}
	}
	for _, cs := range e.caps {
		cs.geq = cs.el.C / h
		if e.trap {
			cs.geq = 2 * cs.el.C / h
		}
		sys.StampConductance(a, cs.el.A, cs.el.B, cs.geq)
	}
	for _, is := range e.inds {
		is.req = is.el.L / h
		if e.trap {
			is.req = 2 * is.el.L / h
		}
		sys.StampBranch(a, is.el.A, is.el.B, is.k)
		a.Add(is.k, is.k, -is.req)
	}
	for _, cp := range e.coups {
		cp.reqM = cp.m / h
		if e.trap {
			cp.reqM = 2 * cp.m / h
		}
		a.Add(cp.k1, cp.k2, -cp.reqM)
		a.Add(cp.k2, cp.k1, -cp.reqM)
	}
	lu, err := lina.Factor(a)
	if err != nil {
		return guard.New(guard.ErrNumeric, "transim",
			fmt.Errorf("singular MNA system (floating node or inconsistent sources): %w", err))
	}
	e.lu = lu
	return nil
}

func (e *engine) nodeVolt(x []float64, n circuit.NodeID) float64 {
	if idx := e.sys.NodeIndex(n); idx >= 0 {
		return x[idx]
	}
	return 0
}

// step advances the engine one h from its current state.
func (e *engine) step() {
	tNext := e.t + e.h
	rhs := e.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	for _, cs := range e.caps {
		// Companion current source: i_{n+1} = geq·(v_{n+1} − v_n) − i_n
		// (trapezoidal; backward Euler keeps i_n ≡ 0).
		j := cs.geq*cs.v + cs.i
		e.sys.StampCurrent(rhs, cs.el.A, cs.el.B, j)
	}
	for _, is := range e.inds {
		// Branch row: v_a − v_b − req·i_{n+1} = −v_n − req·i_n (trap)
		// or −req·i_n (backward Euler, v state kept at zero).
		rhs[is.k] = -is.v - is.req*e.x[is.k]
	}
	for _, cp := range e.coups {
		// Cross history of the mutual inductance.
		rhs[cp.k1] -= cp.reqM * e.x[cp.k2]
		rhs[cp.k2] -= cp.reqM * e.x[cp.k1]
	}
	for _, ss := range e.srcs {
		rhs[ss.k] = ss.el.Src.V(tNext)
	}
	xNew := e.lu.Solve(rhs)

	for _, cs := range e.caps {
		vNew := e.nodeVolt(xNew, cs.el.A) - e.nodeVolt(xNew, cs.el.B)
		if e.trap {
			cs.i = cs.geq*(vNew-cs.v) - cs.i
		}
		cs.v = vNew
	}
	if e.trap {
		for _, is := range e.inds {
			is.v = e.nodeVolt(xNew, is.el.A) - e.nodeVolt(xNew, is.el.B)
		}
	}
	copy(e.x, xNew)
	e.t = tNext
}

// engineState snapshots everything step() mutates.
type engineState struct {
	x    []float64
	t    float64
	capV []float64
	capI []float64
	indV []float64
}

func (e *engine) save() engineState {
	s := engineState{
		x:    append([]float64(nil), e.x...),
		t:    e.t,
		capV: make([]float64, len(e.caps)),
		capI: make([]float64, len(e.caps)),
		indV: make([]float64, len(e.inds)),
	}
	for i, cs := range e.caps {
		s.capV[i], s.capI[i] = cs.v, cs.i
	}
	for i, is := range e.inds {
		s.indV[i] = is.v
	}
	return s
}

func (e *engine) restore(s engineState) {
	copy(e.x, s.x)
	e.t = s.t
	for i, cs := range e.caps {
		cs.v, cs.i = s.capV[i], s.capI[i]
	}
	for i, is := range e.inds {
		is.v = s.indV[i]
	}
}

// newResult allocates a Result with capacity for n samples and records the
// engine's current state as sample 0.
func newResult(d *circuit.Deck, e *engine, capacity int) *Result {
	r := &Result{
		Deck:    d,
		Time:    make([]float64, 0, capacity),
		nodeV:   make([][]float64, e.sys.NumNodes()),
		branchI: make([][]float64, e.sys.Size()-e.sys.NumNodes()),
		sys:     e.sys,
	}
	for i := range r.nodeV {
		r.nodeV[i] = make([]float64, 0, capacity)
	}
	for i := range r.branchI {
		r.branchI[i] = make([]float64, 0, capacity)
	}
	r.record(e)
	return r
}

func (r *Result) record(e *engine) {
	r.Time = append(r.Time, e.t)
	n := e.sys.NumNodes()
	for i := 0; i < n; i++ {
		r.nodeV[i] = append(r.nodeV[i], e.x[i])
	}
	for i := range r.branchI {
		r.branchI[i] = append(r.branchI[i], e.x[n+i])
	}
}

// Simulate runs a fixed-step transient analysis of the deck.
func Simulate(d *circuit.Deck, opt Options) (*Result, error) {
	return SimulateCtx(context.Background(), d, opt)
}

// SimulateCtx is Simulate under a context: cancellation (or a deadline)
// is honored between time steps, returning a guard.ErrCanceled-classed
// error within one step of the context firing. Exceeding the sample
// limit fails with guard.ErrLimit; non-physical step/stop values and
// singular systems fail with guard.ErrNumeric.
func SimulateCtx(ctx context.Context, d *circuit.Deck, opt Options) (*Result, error) {
	if opt.Step == 0 && opt.Stop == 0 && d.Tran != nil {
		opt.Step, opt.Stop = d.Tran.Step, d.Tran.Stop
	}
	if !(opt.Step > 0) || !(opt.Stop > opt.Step) {
		return nil, guard.Newf(guard.ErrNumeric, "transim",
			"require 0 < step < stop, got step=%g stop=%g", opt.Step, opt.Stop)
	}
	steps := int(math.Ceil(opt.Stop / opt.Step))
	if steps > maxSteps {
		return nil, guard.Newf(guard.ErrLimit, "transim",
			"%d steps exceeds limit %d; increase the step", steps, maxSteps)
	}
	e, err := newEngine(d, opt.Method)
	if err != nil {
		return nil, err
	}
	if err := e.setStep(opt.Step); err != nil {
		return nil, err
	}
	res := newResult(d, e, steps+1)
	executed := 0
	defer func() { mSteps.Add(uint64(executed)) }()
	for k := 1; k <= steps; k++ {
		if err := guard.Check(ctx); err != nil {
			return nil, err
		}
		e.step()
		executed++
		res.record(e)
	}
	return res, nil
}
