package pop

import (
	"fmt"

	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// Memento is the complete serializable state of a World: everything a
// fresh World of the same protocol and options needs to continue the
// exact trajectory — the agent states, the step and effective-interaction
// clocks, the first-halted record (historical, not derivable from the
// configuration) and the scheduler RNG. Derived tallies (halted flags and
// counts) are recomputed on restore via the protocol's Halted predicate.
//
// The state type S is generic here; the job layer's per-spec codecs
// instantiate the concrete type so a Memento round-trips through gob.
type Memento[S any] struct {
	N           int
	Steps       int64
	Effective   int64
	FirstHalted int
	RNG         wrand.RNGState
	States      []S
	// Sched is the scheduler/fault layer's state; nil for profile-less
	// runs (old snapshots decode with it nil, and restore identically).
	// Under churn States covers every index ever allocated, so its length
	// can exceed N; Sched's flags say which indices are still present.
	Sched *sched.AgentsState
}

// Memento captures the World's current state. The returned value shares
// nothing with the World (states are copied), so it stays valid while the
// run continues. Capture it only between steps — e.g. from the Progress
// callback, which the engine invokes with the world quiescent.
func (w *World[S]) Memento() *Memento[S] {
	states := make([]S, len(w.states))
	copy(states, w.states)
	m := &Memento[S]{
		N:           w.n,
		Steps:       w.steps,
		Effective:   w.effective,
		FirstHalted: w.firstHalted,
		RNG:         w.rng.State(),
		States:      states,
	}
	if w.agents != nil {
		m.Sched = w.agents.State()
	}
	return m
}

// RestoreMemento rewinds (or fast-forwards) the World to a captured
// state. The World must have been built with the same population size and
// protocol; options (budget, progress, stop conditions) are the World's
// own, so a resumed run can carry a different budget or callbacks without
// touching the trajectory. After a successful restore the World continues
// exactly as the captured one would have.
func (w *World[S]) RestoreMemento(m *Memento[S]) error {
	if m.N != w.n {
		return fmt.Errorf("pop: snapshot population %d, world has %d", m.N, w.n)
	}
	if (m.Sched != nil) != (w.agents != nil) {
		return fmt.Errorf("pop: snapshot scheduler state presence %v, world profile says %v",
			m.Sched != nil, w.agents != nil)
	}
	wantStates := w.n
	if m.Sched != nil {
		wantStates = len(m.Sched.Flags)
	}
	if len(m.States) != wantStates {
		return fmt.Errorf("pop: snapshot carries %d states, want %d", len(m.States), wantStates)
	}
	if m.FirstHalted < -1 || m.FirstHalted >= len(m.States) {
		return fmt.Errorf("pop: snapshot first-halted id %d out of range", m.FirstHalted)
	}
	if err := w.rng.SetState(m.RNG); err != nil {
		return err
	}
	if w.agents != nil {
		if err := w.agents.RestoreState(m.Sched, m.Steps); err != nil {
			return err
		}
	}
	w.states = make([]S, len(m.States))
	copy(w.states, m.States)
	w.halted = make([]bool, len(m.States))
	w.haltedCount = 0
	for i := range w.states {
		w.halted[i] = w.present(i) && w.proto.Halted(w.states[i])
		if w.halted[i] {
			w.haltedCount++
		}
	}
	w.steps = m.Steps
	w.effective = m.Effective
	w.firstHalted = m.FirstHalted
	return nil
}
