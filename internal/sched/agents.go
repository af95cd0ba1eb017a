package sched

import (
	"fmt"

	"shapesol/internal/wrand"
)

// Agent flag bits. A flag-free agent is active: present and eligible to
// interact. The crash and freeze bits are mutually exclusive (fault
// events only target active agents), and the departed bit is terminal.
const (
	flagCrashed  = 1 << 0
	flagFrozen   = 1 << 1
	flagDeparted = 1 << 2
)

// Agents is the per-run scheduler + fault state of an identity-keeping
// engine (pop and sim; the urn engine compresses ids away and drives a
// bare Clock instead). It is the one place that decides how the profile's
// policy picks, vetoes and re-weights pairs (Pick for the exact engine;
// AllowPair and ScaleInter for the geometric engine, whose pairs come from
// geometry), and how a fault event changes an agent. It tracks each
// agent's fault flags, maintains the weighted eligibility structures the
// policies sample from, and owns the fault Clock. All interaction
// randomness flows through the engine RNG passed to Pick, so every policy
// snapshots with the engine. Agent indices are the engine's own indices:
// stable, append-only under arrivals, flagged (never compacted) under
// departures.
type Agents struct {
	prof  Profile
	clock *Clock // nil when the profile has no fault rates

	founders int // founding population size
	starvedN int // adversarial-delay: starved id prefix length

	flags []uint8
	// actW holds each agent's pick weight (its activity rate, or 1) when
	// active, 0 otherwise. Under adversarial-delay the starved prefix is
	// pinned to 0 here and lives in stW instead, so normal picks exclude
	// it by construction.
	actW *wrand.Fenwick
	stW  *wrand.Fenwick // adversarial-delay only: the starved prefix

	active        int // agents with no flags
	activeStarved int // active agents in the starved prefix
	present       int // agents not departed

	// sinceService counts scheduler steps since the starved set last
	// interacted; at FairnessBound the adversary is forced to serve it.
	sinceService int64
}

// NewAgents builds the scheduler/fault state for a run of n founding
// agents. The profile must already be normalized for the engine (see
// Profile.Normalize); engineSeed derives the fault RNG seed when the
// profile does not pin one.
func NewAgents(p Profile, n int, engineSeed int64) *Agents {
	a := &Agents{
		prof:     p,
		founders: n,
		flags:    make([]uint8, n),
		present:  n,
		active:   n,
	}
	if p.Scheduler == KindAdversarialDelay {
		a.starvedN = min(max(int(int64(n)*p.StarvePct/100), 1), n)
		a.stW = wrand.NewFenwick(a.starvedN)
		a.activeStarved = a.starvedN
	}
	a.actW = wrand.NewFenwick(n)
	for k := 0; k < n; k++ {
		a.weightFen(k).Set(k, a.rate(k))
	}
	if p.HasFaults() {
		a.clock = NewClock(p, engineSeed)
	}
	return a
}

// rate returns agent k's pick weight: its activity rate under the
// weighted scheduler, 1 otherwise.
func (a *Agents) rate(k int) int64 {
	if len(a.prof.Rates) > 0 {
		return a.prof.Rates[k%len(a.prof.Rates)]
	}
	return 1
}

// starved reports whether agent k is in the adversarially starved set.
func (a *Agents) starved(k int) bool { return k < a.starvedN && a.stW != nil }

// weightFen returns the Fenwick tree holding agent k's eligibility
// weight, at index k.
func (a *Agents) weightFen(k int) *wrand.Fenwick {
	if a.starved(k) {
		return a.stW
	}
	return a.actW
}

// Len returns the number of agent indices ever allocated (founders plus
// arrivals; departures are not compacted).
func (a *Agents) Len() int { return len(a.flags) }

// Present returns the number of non-departed agents.
func (a *Agents) Present() int { return a.present }

// Active returns the number of flag-free agents.
func (a *Agents) Active() int { return a.active }

// IsActive reports whether agent k can currently interact.
func (a *Agents) IsActive(k int) bool { return a.flags[k] == 0 }

// IsPresent reports whether agent k has not departed.
func (a *Agents) IsPresent(k int) bool { return a.flags[k]&flagDeparted == 0 }

// Pick draws an ordered pair of distinct active agents under the policy.
// ok is false when no pair is currently schedulable (fewer than two
// active agents): the engine then fast-forwards to the next fault event.
// The uniform and weighted policies draw each agent proportionally to its
// pick weight (1, or its activity rate), so the pair (i, j) fires with
// probability proportional to rate_i * rate_j, matching the urn engine's
// slot-weight multipliers.
func (a *Agents) Pick(rng *wrand.RNG) (i, j int, ok bool) {
	switch a.prof.Scheduler {
	case KindClustered:
		return a.pickClustered(rng)
	case KindAdversarialDelay:
		return a.pickAdversarial(rng)
	}
	return samplePair(a.actW, rng)
}

// AllowPair vets a geometry-proposed pair of agents: both must be active,
// and the adversarial-delay policy may veto it (see allowAdversarial). A
// blocked pair costs a scheduler step but does not interact.
func (a *Agents) AllowPair(i, j int) bool {
	if a.flags[i] != 0 || a.flags[j] != 0 {
		return false
	}
	if a.prof.Scheduler == KindAdversarialDelay {
		return a.allowAdversarial(i, j)
	}
	return true
}

// ScaleInter rescales the geometric engine's inter-component category
// weight. The clustered policy shrinks it to (100-BiasPct)%, never to 0
// while it is positive and the bias below 100: component-local
// interactions are the geometric engine's "blocks". Every other policy
// leaves it alone.
func (a *Agents) ScaleInter(w int64) int64 {
	if a.prof.Scheduler != KindClustered {
		return w
	}
	scaled := w * (100 - a.prof.BiasPct) / 100
	if scaled < 1 && w > 0 && a.prof.BiasPct < 100 {
		scaled = 1
	}
	return scaled
}

// faultMoves gives, for each agent-level fault event, the flags its
// victim must match (f&mask == value) and the flags it moves to. Crashes
// and freezes target active agents; a departed agent never recovers or
// thaws.
var faultMoves = [...]struct{ mask, value, to uint8 }{
	EvCrash:   {0xff, 0, flagCrashed},
	EvRecover: {flagCrashed | flagDeparted, flagCrashed, 0},
	EvFreeze:  {0xff, 0, flagFrozen},
	EvThaw:    {flagFrozen | flagDeparted, flagFrozen, 0},
}

// NextChurn drains the fault clock up to step. It applies every due
// crash, recovery, freeze and thaw itself, each to a uniformly random
// agent it can affect, and stops at the first due arrival or departure,
// which it returns for the engine to apply (ArriveOne, DepartOne), since
// those change the engine's own population. Events come in clock order;
// ok is false once nothing is due, or without a clock, so callers loop
// until then.
func (a *Agents) NextChurn(step int64) (Event, bool) {
	if a.clock == nil {
		return 0, false
	}
	for {
		ev, ok := a.clock.NextDue(step)
		if !ok || ev == EvArrive || ev == EvDepart {
			return ev, ok
		}
		a.fault(ev)
	}
}

// fault applies one crash, recovery, freeze or thaw: the victim, or
// ok=false when no agent qualifies.
func (a *Agents) fault(ev Event) (int, bool) {
	m := faultMoves[ev]
	k, ok := a.pickVictim(m.mask, m.value, nil)
	if ok {
		a.setFlags(k, m.to)
	}
	return k, ok
}

// FaultEvents returns how many fault events the clock has delivered to
// this Agents (see Clock.Fired); 0 on a nil Agents.
func (a *Agents) FaultEvents() int64 {
	if a == nil {
		return 0
	}
	return a.clock.Fired()
}

// NextPending returns the earliest scheduled fault-event time, or a
// sentinel beyond any run budget when faults are disabled.
func (a *Agents) NextPending() int64 {
	if a.clock == nil {
		return noEvent
	}
	return a.clock.NextPending()
}

// setFlags installs agent k's new flag byte, keeping the eligibility
// weights and census counters in sync.
func (a *Agents) setFlags(k int, f uint8) {
	old := a.flags[k]
	if old == f {
		return
	}
	a.flags[k] = f
	wasActive, isActive := old == 0, f == 0
	if wasActive != isActive {
		w := int64(0)
		if isActive {
			w = a.rate(k)
			a.active++
		} else {
			a.active--
		}
		a.weightFen(k).Set(k, w)
		if a.starved(k) {
			if isActive {
				a.activeStarved++
			} else {
				a.activeStarved--
			}
		}
	}
	if old&flagDeparted == 0 && f&flagDeparted != 0 {
		a.present--
	}
}

// pickVictim draws, with the fault RNG, a uniformly random agent among
// those whose flags f satisfy f&mask == value and, unless eligible is nil,
// eligible(k). It asks eligible only about agents that pass the flag test,
// walking them in ascending index order. ok=false when none qualifies, in
// which case nothing is drawn.
func (a *Agents) pickVictim(mask, value uint8, eligible func(int) bool) (int, bool) {
	m := 0
	for k, f := range a.flags {
		if f&mask == value && (eligible == nil || eligible(k)) {
			m++
		}
	}
	if m == 0 {
		return 0, false
	}
	r := a.clock.RNG().Intn(m)
	for k, f := range a.flags {
		if f&mask == value && (eligible == nil || eligible(k)) {
			if r == 0 {
				return k, true
			}
			r--
		}
	}
	panic("sched: victim scan out of sync")
}

// ArriveOne allocates the next agent index for an arrival (the engine
// appends the matching state). Arrivals are active, never starved.
func (a *Agents) ArriveOne() int {
	k := len(a.flags)
	a.flags = append(a.flags, 0)
	a.actW.Grow(k + 1)
	a.actW.Set(k, a.rate(k))
	a.present++
	a.active++
	return k
}

// DepartOne removes one uniformly random present agent for good, among
// those eligible admits (nil admits every present agent; the geometric
// engine admits only free singleton nodes, since a node bonded into a
// rigid body cannot drift out of the solution). It returns the victim,
// ok=false when none qualifies; the engine adjusts its own census (e.g.
// halted counts) for it.
func (a *Agents) DepartOne(eligible func(int) bool) (int, bool) {
	k, ok := a.pickVictim(flagDeparted, 0, eligible)
	if ok {
		a.setFlags(k, a.flags[k]|flagDeparted)
	}
	return k, ok
}

// possibleFlags reports whether a run can leave an agent with flags f:
// active, crashed or frozen (never both, since faults strike only active
// agents), each possibly departed.
func possibleFlags(f uint8) bool {
	return f&^(flagCrashed|flagFrozen|flagDeparted) == 0 && f&(flagCrashed|flagFrozen) != flagCrashed|flagFrozen
}

// AgentsState is the serializable scheduler/fault state of a run.
type AgentsState struct {
	Founders     int
	Flags        []uint8
	SinceService int64
	HasClock     bool
	Clock        ClockState
}

// State exports the agents for a snapshot.
func (a *Agents) State() *AgentsState {
	s := &AgentsState{
		Founders:     a.founders,
		Flags:        append([]uint8(nil), a.flags...),
		SinceService: a.sinceService,
	}
	if a.clock != nil {
		s.HasClock = true
		s.Clock = a.clock.State()
	}
	return s
}

// RestoreState reinstalls an exported state onto agents freshly built
// (via NewAgents) from the same normalized profile, for a run restored at
// step, rebuilding the eligibility weights from the flags. A flag byte no
// run produces (an unknown bit, or crashed and frozen together) is
// rejected, and the fault clock's state is checked against step (see
// Clock.SetState).
func (a *Agents) RestoreState(s *AgentsState, step int64) error {
	if s.Founders != a.founders {
		return fmt.Errorf("sched: snapshot founders %d, run has %d", s.Founders, a.founders)
	}
	if len(s.Flags) < a.founders {
		return fmt.Errorf("sched: snapshot has %d agent flags, need >= %d", len(s.Flags), a.founders)
	}
	if s.HasClock != (a.clock != nil) {
		return fmt.Errorf("sched: snapshot fault clock presence %v, profile says %v", s.HasClock, a.clock != nil)
	}
	for k, f := range s.Flags {
		if !possibleFlags(f) {
			return fmt.Errorf("sched: snapshot agent %d has flags %#x, which no run produces", k, f)
		}
	}
	a.flags = append([]uint8(nil), s.Flags...)
	a.sinceService = s.SinceService
	a.actW = wrand.NewFenwick(len(a.flags))
	if a.stW != nil {
		a.stW = wrand.NewFenwick(a.starvedN)
	}
	a.active, a.activeStarved, a.present = 0, 0, 0
	for k, f := range a.flags {
		if f&flagDeparted == 0 {
			a.present++
		}
		if f == 0 {
			a.active++
			a.weightFen(k).Set(k, a.rate(k))
			if a.starved(k) {
				a.activeStarved++
			}
		}
	}
	if a.clock != nil {
		if err := a.clock.SetState(s.Clock, step); err != nil {
			return err
		}
	}
	return nil
}

// samplePair draws i then j (i excluded) from f, each proportional to
// weight. ok=false when fewer than two positive-weight slots remain.
func samplePair(f *wrand.Fenwick, rng *wrand.RNG) (int, int, bool) {
	i, ok := f.Sample(rng)
	if !ok {
		return 0, 0, false
	}
	wi := f.Weight(i)
	f.Set(i, 0)
	j, ok := f.Sample(rng)
	f.Set(i, wi)
	if !ok {
		return 0, 0, false
	}
	return i, j, true
}

// pickClustered prefers block-local partners: the initiator is uniform
// among active agents, and with probability BiasPct the responder is
// drawn from the initiator's block (falling back to global when the block
// has no other active agent).
func (a *Agents) pickClustered(rng *wrand.RNG) (int, int, bool) {
	i, ok := a.actW.Sample(rng)
	if !ok {
		return 0, 0, false
	}
	if int64(rng.Intn(100)) < a.prof.BiasPct {
		bs := int(a.prof.BlockSize)
		lo := (i / bs) * bs
		hi := lo + bs
		if hi > len(a.flags) {
			hi = len(a.flags)
		}
		m := 0
		for k := lo; k < hi; k++ {
			if k != i && a.flags[k] == 0 {
				m++
			}
		}
		if m > 0 {
			r := rng.Intn(m)
			for k := lo; k < hi; k++ {
				if k != i && a.flags[k] == 0 {
					if r == 0 {
						return i, k, true
					}
					r--
				}
			}
		}
	}
	wi := a.actW.Weight(i)
	a.actW.Set(i, 0)
	j, ok := a.actW.Sample(rng)
	a.actW.Set(i, wi)
	if !ok {
		return 0, 0, false
	}
	return i, j, true
}

// pickAdversarial starves the founding id prefix: normal picks exclude it
// entirely, and only when the starved set has gone FairnessBound steps
// unserved (or no starvation-free pair exists) is the adversary forced to
// schedule a starved agent. This is the weakest scheduler the weak
// fairness assumption admits — the sweep that shows which termination
// guarantees survive it.
func (a *Agents) pickAdversarial(rng *wrand.RNG) (int, int, bool) {
	activeOther := a.active - a.activeStarved
	forced := a.sinceService >= a.prof.FairnessBound && a.activeStarved > 0
	if !forced && activeOther >= 2 {
		i, j, ok := samplePair(a.actW, rng)
		if ok {
			a.sinceService++
		}
		return i, j, ok
	}
	// Serve the starved set: one starved agent, partner from anywhere.
	if a.activeStarved == 0 {
		return 0, 0, false
	}
	i, ok := a.stW.Sample(rng)
	if !ok {
		return 0, 0, false
	}
	var j int
	if activeOther > 0 {
		j, ok = a.actW.Sample(rng)
	} else {
		wi := a.stW.Weight(i)
		a.stW.Set(i, 0)
		j, ok = a.stW.Sample(rng)
		a.stW.Set(i, wi)
	}
	if !ok {
		return 0, 0, false
	}
	a.sinceService = 0
	return i, j, true
}

// allowAdversarial is the adversary's veto form: pairs touching the
// starved set are blocked until the fairness bound forces service.
func (a *Agents) allowAdversarial(i, j int) bool {
	if !a.starved(i) && !a.starved(j) {
		a.sinceService++
		return true
	}
	if a.sinceService >= a.prof.FairnessBound {
		a.sinceService = 0
		return true
	}
	a.sinceService++
	return false
}
