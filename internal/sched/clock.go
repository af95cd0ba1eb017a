package sched

import (
	"fmt"
	"math"

	"shapesol/internal/wrand"
)

// Event identifies one fault-event kind on the Clock.
type Event int

// The fault-event kinds, in the fixed order the Clock schedules them (ties
// on the same step fire in this order, making the timeline deterministic).
const (
	EvCrash Event = iota
	EvRecover
	EvFreeze
	EvThaw
	EvArrive
	EvDepart
	numEvents
)

// String names the event for logs and errors.
func (e Event) String() string {
	switch e {
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvFreeze:
		return "freeze"
	case EvThaw:
		return "thaw"
	case EvArrive:
		return "arrive"
	case EvDepart:
		return "depart"
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// noEvent marks a disabled or exhausted clock lane.
const noEvent = int64(1) << 62

// Clock is the fault-event timeline of one run: a marked point process on
// the scheduler's step counter. Each enabled event kind carries a mean
// inter-event gap; successive firing times are the running sum of
// exponential gaps (rounded up to whole steps), drawn from a dedicated
// RNG so the fault timeline never perturbs the interaction stream. Crash
// and churn budgets permanently retire their lanes once spent.
//
// Clock state round-trips through ClockState, so snapshots resume the
// fault timeline exactly.
type Clock struct {
	means [numEvents]int64
	// maxCrashes / maxChurn are remaining budgets; negative = unbounded.
	maxCrashes int64
	maxChurn   int64
	rng        *wrand.RNG
	next       [numEvents]int64
	// fired counts the events NextDue delivered. It is not ClockState: a
	// restored clock counts from zero, so a resumed run's metrics publish
	// only the events it delivered itself.
	fired int64
}

// NewClock builds the fault clock of a run. engineSeed derives the fault
// RNG seed when the profile leaves FaultSeed zero (the two streams must
// differ, so the derivation perturbs the seed). A profile with no fault
// rates yields a clock whose NextDue never fires; callers with a nil
// profile should skip clock construction entirely.
func NewClock(p Profile, engineSeed int64) *Clock {
	seed := p.FaultSeed
	if seed == 0 {
		seed = engineSeed ^ 0x5bf0_15eb_c0de_fa17
	}
	c := &Clock{
		maxCrashes: -1,
		maxChurn:   -1,
		rng:        wrand.NewRNG(seed),
	}
	c.means = [numEvents]int64{
		EvCrash: p.CrashEvery, EvRecover: p.RecoverEvery,
		EvFreeze: p.FreezeEvery, EvThaw: p.ThawEvery,
		EvArrive: p.ArriveEvery, EvDepart: p.DepartEvery,
	}
	if p.MaxCrashes > 0 {
		c.maxCrashes = p.MaxCrashes
	}
	if p.MaxChurn > 0 {
		c.maxChurn = p.MaxChurn
	}
	for e := Event(0); e < numEvents; e++ {
		c.next[e] = noEvent
		if c.means[e] > 0 {
			c.next[e] = c.gap(e)
		}
	}
	return c
}

// gap draws one exponential inter-event gap for lane e, at least one step.
func (c *Clock) gap(e Event) int64 {
	g := int64(c.rng.ExpFloat64() * float64(c.means[e]))
	if g < 1 {
		g = 1
	}
	return g
}

// NextDue pops the earliest event with firing time <= step, advancing that
// lane to its next firing time and spending budgets. It returns ok=false
// when no event is due. Callers drain all due events by looping — an urn
// block can jump millions of steps past several pending firings, and each
// is delivered in turn (Poisson-faithful catch-up: the lane reschedules
// from its own firing time, not from the caller's step).
func (c *Clock) NextDue(step int64) (Event, bool) {
	best, at := Event(-1), noEvent
	for e := Event(0); e < numEvents; e++ {
		if c.next[e] < at {
			best, at = e, c.next[e]
		}
	}
	if best < 0 || at > step {
		return 0, false
	}
	c.next[best] += c.gap(best)
	c.fired++
	switch best {
	case EvCrash:
		if c.maxCrashes > 0 {
			c.maxCrashes--
			if c.maxCrashes == 0 {
				c.next[EvCrash] = noEvent
			}
		}
	case EvArrive, EvDepart:
		if c.maxChurn > 0 {
			c.maxChurn--
			if c.maxChurn == 0 {
				c.next[EvArrive] = noEvent
				c.next[EvDepart] = noEvent
			}
		}
	}
	return best, true
}

// NextPending returns the earliest scheduled firing time, or a value
// beyond any reachable step count when every lane is disabled. The urn
// engine caps its geometric skips at this horizon so no block jumps over
// a fault event.
func (c *Clock) NextPending() int64 {
	at := noEvent
	for e := Event(0); e < numEvents; e++ {
		if c.next[e] < at {
			at = c.next[e]
		}
	}
	return at
}

// Backlog returns how many mean gaps the most overdue lane's next firing
// lies behind step: about how many events NextDue would deliver at once
// for a run standing at step. It is 0 when nothing is overdue, as on a
// clock drained at step, and math.MaxInt64 when step reaches a disabled
// lane's sentinel, past which that lane would fire on every step.
func (c *Clock) Backlog(step int64) int64 {
	var worst int64
	for e := Event(0); e < numEvents; e++ {
		switch {
		case c.next[e] > step:
		case c.means[e] == 0:
			return math.MaxInt64
		default:
			worst = max(worst, (step-c.next[e])/c.means[e])
		}
	}
	return worst
}

// Fired returns how many events NextDue has delivered since the clock
// was built (restoring a state does not carry the count over); 0 on a
// nil clock.
func (c *Clock) Fired() int64 {
	if c == nil {
		return 0
	}
	return c.fired
}

// RNG exposes the fault stream's generator for victim selection: which
// agent crashes/freezes/departs is fault randomness, not interaction
// randomness, so it must not consume the engine stream.
func (c *Clock) RNG() *wrand.RNG { return c.rng }

// ClockState is the serializable state of a Clock.
type ClockState struct {
	RNG        wrand.RNGState
	Next       [6]int64
	MaxCrashes int64
	MaxChurn   int64
}

// State exports the clock for a snapshot.
func (c *Clock) State() ClockState {
	s := ClockState{RNG: c.rng.State(), MaxCrashes: c.maxCrashes, MaxChurn: c.maxChurn}
	copy(s.Next[:], c.next[:])
	return s
}

// maxBacklog bounds how far a restored clock may lag the run's step
// count, in mean gaps of its most overdue lane. A state captured on a
// run's Progress cadence has drained every due event (backlog 0), and one
// captured between hand-driven steps lags by the steps taken since; a
// backlog beyond this bound only comes from a crafted snapshot, and would
// have the next drain deliver an unbounded burst of events (arrivals
// included) before the run could be canceled.
const maxBacklog = 1024

// SetState reinstalls an exported clock state for a run restored at step.
// The event means come from the profile (re-normalized at restore time),
// not the state blob, and a state the profile cannot produce is rejected:
// a lane the profile disables must stay retired (it would otherwise fire
// on every step), an enabled lane's next firing is at step 1 or later,
// and no lane may lag step by more than maxBacklog mean gaps.
func (c *Clock) SetState(s ClockState, step int64) error {
	for e := Event(0); e < numEvents; e++ {
		if next := s.Next[e]; next < 1 || (c.means[e] == 0 && next != noEvent) {
			return fmt.Errorf("sched: clock lane %v scheduled at step %d", e, next)
		}
	}
	restored := Clock{means: c.means, next: s.Next}
	if b := restored.Backlog(step); b > maxBacklog {
		return fmt.Errorf("sched: clock lags step %d by %d mean gaps", step, b)
	}
	if err := c.rng.SetState(s.RNG); err != nil {
		return fmt.Errorf("sched: clock %w", err)
	}
	copy(c.next[:], s.Next[:])
	c.maxCrashes = s.MaxCrashes
	c.maxChurn = s.MaxChurn
	return nil
}
