// Package pop implements the classical population-protocol setting used by
// Section 5 of the paper: n agents on a complete interaction graph, no
// geometry, no bonds. In every step a scheduler selects an agent pair; the
// pair interacts and updates its states.
//
// Pair selection is pluggable (internal/sched): by default — and always,
// when no scheduler/fault profile is applied — the engine draws one of
// the n(n-1)/2 unordered pairs uniformly at random, reproducing the
// historical RNG stream byte for byte. ApplyProfile installs an
// alternative policy (weighted, clustered, adversarial-delay) and/or a
// fault model (crashes, freezes, population churn); this engine keeps
// per-agent identity, so it is the reference implementation of every
// policy and fault kind.
//
// The engine is generic over the protocol's state type S, so agent states
// are stored unboxed in a []S and the steady-state Step performs no heap
// allocations (protocols with value-type states keep the whole hot loop
// allocation-free; see TestStepZeroAllocs).
//
// The counting protocols of Section 5 are built on this engine
// (internal/counting); the geometric engine of internal/sim is used once
// counting moves onto a self-assembled line (Section 6.1).
package pop

import (
	"context"
	"fmt"

	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// Protocol is the agent behavior, generic over the per-agent state type S.
// Apply receives the two states in random order (pairs are unordered) and
// returns the updated states plus an effectiveness flag.
type Protocol[S any] interface {
	InitialState(id, n int) S
	Apply(a, b S) (na, nb S, effective bool)
	Halted(s S) bool
}

// Options configures a run.
type Options struct {
	Seed int64
	// MaxSteps bounds Run; default 100 million.
	MaxSteps int64
	// StopWhenAnyHalted stops Run at the first halting agent.
	StopWhenAnyHalted bool
	// StopWhenAllHalted stops Run when every agent halted.
	StopWhenAllHalted bool
	// CheckEvery is the cadence (in scheduler steps) of the RunContext
	// cancellation check and the Progress callback. The urn engine applies
	// the same cadence to effective interactions instead, since its skipped
	// steps cost no work. Defaults to 256.
	CheckEvery int64
	// Progress, when non-nil, is invoked by Run every CheckEvery steps with
	// the current (simulated) step count. It must not mutate the world.
	Progress func(steps int64)
}

func (o Options) withDefaults() Options {
	sched.RunDefaults(&o.MaxSteps, &o.CheckEvery, 100_000_000)
	return o
}

// StopReason explains why Run returned.
type StopReason int

// Stop reasons.
const (
	ReasonMaxSteps StopReason = iota + 1
	ReasonHalted
	ReasonCanceled
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case ReasonMaxSteps:
		return "max-steps"
	case ReasonHalted:
		return "halted"
	case ReasonCanceled:
		return "canceled"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Result summarizes a run.
type Result struct {
	Steps       int64
	Effective   int64
	Reason      StopReason
	FirstHalted int // id of the first agent to halt, or -1
}

// World is one population instance. Not safe for concurrent use; run
// independent worlds in parallel instead (see internal/runner).
type World[S any] struct {
	n      int
	opts   Options
	proto  Protocol[S]
	rng    *wrand.RNG
	states []S
	halted []bool
	// agents is the scheduler/fault layer; nil (the default, and the only
	// state a zero profile produces) keeps the historical uniform draw and
	// its exact RNG stream.
	agents *sched.Agents

	steps, effective int64
	haltedCount      int
	firstHalted      int

	// metrics, when non-nil, receives fleet-wide counter deltas on the
	// CheckEvery cadence. The pub* fields track what has already been
	// published so restored step counts are never re-counted.
	metrics                          *obs.EngineMetrics
	faultEvents                      int64
	pubSteps, pubEffective, pubFault int64
}

// New builds a population of n agents in their initial states. n must be at
// least 2.
func New[S any](n int, proto Protocol[S], opts Options) *World[S] {
	if n < 2 {
		panic(fmt.Sprintf("pop: population size %d < 2", n))
	}
	w := &World[S]{
		n:           n,
		opts:        opts.withDefaults(),
		proto:       proto,
		rng:         wrand.NewRNG(opts.Seed),
		states:      make([]S, n),
		halted:      make([]bool, n),
		firstHalted: -1,
	}
	for i := 0; i < n; i++ {
		w.states[i] = proto.InitialState(i, n)
		if proto.Halted(w.states[i]) {
			w.halted[i] = true
			w.haltedCount++
			if w.firstHalted < 0 {
				w.firstHalted = i
			}
		}
	}
	return w
}

// ApplyProfile installs a scheduler/fault profile on a freshly built
// World (call it before stepping; a snapshot restore re-installs the
// profile first and then overwrites the layer's state). A profile that
// normalizes to the zero value leaves the engine on its historical
// uniform path, byte-identical to a profile-less run.
func (w *World[S]) ApplyProfile(p sched.Profile) error {
	np, err := p.Normalize(sched.EnginePop, w.n)
	if err != nil {
		return err
	}
	if np.IsZero() {
		w.agents = nil
		return nil
	}
	w.agents = sched.NewAgents(np, w.n, w.opts.Seed)
	return nil
}

// Agents exposes the scheduler/fault layer, nil when none is installed.
func (w *World[S]) Agents() *sched.Agents { return w.agents }

// N returns the founding population size (arrivals and departures do not
// change it; see Present).
func (w *World[S]) N() int { return w.n }

// Present returns the number of non-departed agents.
func (w *World[S]) Present() int {
	if w.agents == nil {
		return w.n
	}
	return w.agents.Present()
}

// Steps returns the number of scheduler selections so far.
func (w *World[S]) Steps() int64 { return w.steps }

// Effective returns the number of effective interactions so far.
func (w *World[S]) Effective() int64 { return w.effective }

// State returns agent id's current state.
func (w *World[S]) State(id int) S { return w.states[id] }

// HaltedCount returns the number of halted agents.
func (w *World[S]) HaltedCount() int { return w.haltedCount }

// FirstHalted returns the id of the first agent that halted, or -1.
func (w *World[S]) FirstHalted() int { return w.firstHalted }

// FindNode returns the smallest present agent id whose state satisfies
// pred, or -1. Departed agents' states are stale and never matched.
func (w *World[S]) FindNode(pred func(S) bool) int {
	for i := range w.states {
		if w.present(i) && pred(w.states[i]) {
			return i
		}
	}
	return -1
}

// CountNodes returns how many present agent states satisfy pred.
func (w *World[S]) CountNodes(pred func(S) bool) int {
	n := 0
	for i := range w.states {
		if w.present(i) && pred(w.states[i]) {
			n++
		}
	}
	return n
}

func (w *World[S]) present(id int) bool {
	return w.agents == nil || w.agents.IsPresent(id)
}

// Step performs one pairwise interaction under the installed scheduler
// (the uniform random draw when none is) and reports whether it was
// effective.
func (w *World[S]) Step() bool {
	if w.agents != nil {
		return w.stepScheduled()
	}
	w.steps++
	i := w.rng.Intn(w.n)
	j := w.rng.Intn(w.n - 1)
	if j >= i {
		j++
	}
	na, nb, effective := w.proto.Apply(w.states[i], w.states[j])
	if !effective {
		return false
	}
	w.effective++
	w.apply(i, na)
	w.apply(j, nb)
	return true
}

// stepScheduled is Step under a scheduler/fault profile: the policy draws
// the pair, and when no pair is schedulable (fewer than two active
// agents) the step clock fast-forwards toward the next fault event — only
// a fault can make progress possible again.
func (w *World[S]) stepScheduled() bool {
	w.steps++
	i, j, ok := w.agents.Pick(w.rng)
	if !ok {
		next := w.agents.NextPending()
		if next > w.opts.MaxSteps {
			next = w.opts.MaxSteps
		}
		if next > w.steps {
			w.steps = next
		}
		return false
	}
	na, nb, effective := w.proto.Apply(w.states[i], w.states[j])
	if !effective {
		return false
	}
	w.effective++
	w.apply(i, na)
	w.apply(j, nb)
	return true
}

// SetMetrics attaches a fleet-wide metrics sink. Call it after any
// snapshot restore: the current totals become the published baseline,
// so a resumed run only ever publishes steps it simulated itself.
// Publishing happens on the CheckEvery cadence and at run exit; the
// per-step hot path is untouched.
func (w *World[S]) SetMetrics(m *obs.EngineMetrics) {
	w.metrics = m
	w.pubSteps, w.pubEffective, w.pubFault = w.steps, w.effective, w.faultEvents
	if m != nil {
		m.Runs.Inc()
	}
}

// publishMetrics flushes counter deltas accumulated since the last
// publish. Deltas, not absolute stores: concurrent runs on one daemon
// share the per-engine counters.
func (w *World[S]) publishMetrics() {
	if w.metrics == nil {
		return
	}
	w.metrics.Steps.Add(w.steps - w.pubSteps)
	w.metrics.Effective.Add(w.effective - w.pubEffective)
	w.metrics.FaultEvents.Add(w.faultEvents - w.pubFault)
	w.pubSteps, w.pubEffective, w.pubFault = w.steps, w.effective, w.faultEvents
}

// applyFaults drains every fault event due at the current step. It runs
// on the CheckEvery cadence (and after fast-forwards), so fault times are
// quantized to the check boundary; the event *order* and count are exact.
func (w *World[S]) applyFaults() {
	if w.agents == nil {
		return
	}
	for {
		ev, ok := w.agents.NextDue(w.steps)
		if !ok {
			return
		}
		w.faultEvents++
		switch ev {
		case sched.EvCrash:
			w.agents.CrashOne()
		case sched.EvRecover:
			w.agents.RecoverOne()
		case sched.EvFreeze:
			w.agents.FreezeOne()
		case sched.EvThaw:
			w.agents.ThawOne()
		case sched.EvArrive:
			id := w.agents.ArriveOne()
			s := w.proto.InitialState(id, w.n)
			w.states = append(w.states, s)
			w.halted = append(w.halted, false)
			if w.proto.Halted(s) {
				w.halted[id] = true
				w.haltedCount++
				if w.firstHalted < 0 {
					w.firstHalted = id
				}
			}
		case sched.EvDepart:
			if id, ok := w.agents.DepartOne(); ok && w.halted[id] {
				w.halted[id] = false
				w.haltedCount--
			}
		}
	}
}

func (w *World[S]) apply(id int, s S) {
	w.states[id] = s
	h := w.proto.Halted(s)
	if h && !w.halted[id] {
		w.halted[id] = true
		w.haltedCount++
		if w.firstHalted < 0 {
			w.firstHalted = id
		}
	} else if !h && w.halted[id] {
		w.halted[id] = false
		w.haltedCount--
	}
}

// stopped reports whether a halting stop condition currently holds.
// Under churn "all" means all present agents; a crashed agent that never
// halted still blocks the all-halted condition — exactly the guarantee
// erosion the fault experiments measure.
func (w *World[S]) stopped() bool {
	all := w.n
	if w.agents != nil {
		all = w.agents.Present()
	}
	return (w.opts.StopWhenAnyHalted && w.haltedCount > 0) ||
		(w.opts.StopWhenAllHalted && all > 0 && w.haltedCount == all)
}

// Run executes steps until a stop condition fires. Stop conditions already
// true at entry (for example a protocol whose initial configuration
// contains a halted agent) return immediately without stepping. It is
// RunContext under a background context.
func (w *World[S]) Run() Result {
	return w.RunContext(context.Background())
}

// RunContext is Run under a cancelable context: cancellation (or deadline
// expiry) is observed every Options.CheckEvery steps and stops the run
// with ReasonCanceled. The per-step hot path is untouched and stays
// allocation-free.
func (w *World[S]) RunContext(ctx context.Context) Result {
	reason := ReasonMaxSteps
	switch {
	case ctx.Err() != nil:
		reason = ReasonCanceled
		return Result{Steps: w.steps, Effective: w.effective,
			Reason: reason, FirstHalted: w.firstHalted}
	case w.stopped():
		reason = ReasonHalted
		return Result{Steps: w.steps, Effective: w.effective,
			Reason: reason, FirstHalted: w.firstHalted}
	}
	nextCheck := w.steps + w.opts.CheckEvery
	for w.steps < w.opts.MaxSteps {
		w.Step()
		if w.stopped() {
			reason = ReasonHalted
			break
		}
		if w.steps >= nextCheck {
			nextCheck = w.steps + w.opts.CheckEvery
			w.applyFaults()
			if w.stopped() {
				reason = ReasonHalted
				break
			}
			if ctx.Err() != nil {
				reason = ReasonCanceled
				break
			}
			w.publishMetrics()
			if w.opts.Progress != nil {
				w.opts.Progress(w.steps)
			}
		}
	}
	w.publishMetrics()
	return Result{
		Steps:       w.steps,
		Effective:   w.effective,
		Reason:      reason,
		FirstHalted: w.firstHalted,
	}
}
