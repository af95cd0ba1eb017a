package counting

import (
	"slices"

	"shapesol/internal/pop"
)

// Section 5.2 argues (Conjecture 1) that no uniform leaderless protocol can
// count w.h.p.: any always-terminating protocol A defines a property
// L_A of observed state sequences, a minimal terminating sequence s0 has
// constant length, and with at least constant probability some node
// observes s0 in its first |s0| interactions — terminating after O(1)
// interactions, independent of n.
//
// ObservationProtocol is the framework the paper describes: a finite
// communicating state space Q with a deterministic transition function,
// plus an internal (non-communicated) memory gamma that records the
// sequence of encountered states. An agent terminates the moment its
// observation sequence starts with Target.

// ObservationProtocol is a uniform leaderless protocol whose termination is
// driven by the observed state sequence.
type ObservationProtocol struct {
	// Initial is q0, shared by all agents (no leader).
	Initial string
	// Delta maps the unordered pair of communicating states to their
	// updates. Missing pairs are ineffective. Keys are "a|b" with a, b in
	// either order; see DeltaKey.
	Delta map[string][2]string
	// Target is s0: an agent terminates when its first len(Target)
	// observations equal Target.
	Target []string
}

var _ pop.Protocol[ObsState] = (*ObservationProtocol)(nil)

// DeltaKey builds a Delta key for the ordered pair (a, b).
func DeltaKey(a, b string) string { return a + "|" + b }

// ObsState is an agent's full state: communicating state plus internal
// observation memory.
type ObsState struct {
	Comm string
	Seen []string // first len(Target) observations only
	Done bool
}

// InitialState starts every agent identically: uniform protocol, no ids.
func (p *ObservationProtocol) InitialState(id, n int) ObsState {
	return ObsState{Comm: p.Initial}
}

// Apply looks up delta for the pair and records mutual observations.
func (p *ObservationProtocol) Apply(a, b ObsState) (ObsState, ObsState, bool) {
	if a.Done && b.Done {
		return a, b, false
	}
	ca, cb := a.Comm, b.Comm
	if out, ok := p.Delta[DeltaKey(ca, cb)]; ok {
		a.Comm, b.Comm = out[0], out[1]
	} else if out, ok := p.Delta[DeltaKey(cb, ca)]; ok {
		b.Comm, a.Comm = out[0], out[1]
	}
	a = p.observe(a, cb)
	b = p.observe(b, ca)
	return a, b, true
}

func (p *ObservationProtocol) observe(s ObsState, encountered string) ObsState {
	if s.Done || len(s.Seen) >= len(p.Target) {
		return s
	}
	s.Seen = append(slices.Clone(s.Seen), encountered)
	if len(s.Seen) == len(p.Target) && slices.Equal(s.Seen, p.Target) {
		s.Done = true
	}
	return s
}

// Halted reports observation-driven termination.
func (p *ObservationProtocol) Halted(s ObsState) bool { return s.Done }

// LeaderlessOutcome reports one run of the Conjecture 1 experiment.
type LeaderlessOutcome struct {
	N int `json:"n"`
	// EarlyTermination is true when some agent terminated having
	// participated in at most len(Target) interactions — the event whose
	// probability Conjecture 1 claims stays constant as n grows.
	EarlyTermination bool `json:"early_termination"`
	// Steps is the scheduler step at which the first agent terminated (or
	// the budget if none did).
	Steps int64 `json:"steps"`
}

// TwoZerosProtocol is the concrete instance used in the experiments: all
// agents start in q0, interacting flips states q0 <-> q1 pairwise, and an
// agent terminates after observing (q0, q0) as its first two encounters.
// |s0| = 2 is constant, so Conjecture 1 predicts early termination with
// probability bounded away from zero for every n.
func TwoZerosProtocol() *ObservationProtocol {
	return &ObservationProtocol{
		Initial: "q0",
		Delta: map[string][2]string{
			DeltaKey("q0", "q0"): {"q1", "q1"},
			DeltaKey("q1", "q1"): {"q0", "q0"},
		},
		Target: []string{"q0", "q0"},
	}
}

// NewLeaderlessWorld builds a Conjecture 1 evidence world, ready to Run
// or to restore a snapshot into. Conjecture 1 runs terminate within tens
// of steps (that early termination is the evidence), so the default
// 256-step progress cadence would never fire; a per-few-steps cadence
// keeps progress and checkpoints observable. Cadence ticks are passive —
// the trajectory is identical at any CheckEvery.
func NewLeaderlessWorld(proto *ObservationProtocol, n int, seed, maxSteps int64, progress func(int64)) *pop.World[ObsState] {
	return pop.New(n, proto, pop.Options{
		Seed: seed, StopWhenAnyHalted: true, MaxSteps: maxSteps, Progress: progress,
		CheckEvery: 4,
	})
}

// LeaderlessOutcomeOf reads the measured outcome off a finished world.
func LeaderlessOutcomeOf(w *pop.World[ObsState], res pop.Result) LeaderlessOutcome {
	out := LeaderlessOutcome{N: w.N(), Steps: res.Steps}
	if res.FirstHalted >= 0 {
		out.EarlyTermination = true
	}
	return out
}
