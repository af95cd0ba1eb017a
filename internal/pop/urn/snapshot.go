package urn

import (
	"fmt"

	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// SchedMemento is the scheduler/fault layer's state for a profiled urn
// World: the per-slot rate multipliers (part of the sampling state — a
// rebuilt assignment would re-deal rate classes), the fault pools by
// value, the population census and the fault clock. Pool order matters:
// recovery picks pool indices with the fault RNG.
type SchedMemento[S comparable] struct {
	Mult       []int64
	RateCursor int64
	Crashed    []S
	Frozen     []S
	Present    int64
	IdSeq      int64
	HasClock   bool
	Clock      sched.ClockState
}

// Memento is the complete serializable state of an urn World. Beyond the
// logical configuration (the multiset of states) it preserves the exact
// slot-table layout — slot assignment, live order, free-slot and
// free-pair recycling stacks, and the responsive-pair table — because the
// layout is part of the sampling state: sampler indices decide which slot
// a given random draw lands on, so a canonically rebuilt urn would be
// statistically equivalent but not trajectory-identical. The state-to-slot
// map and the halted tallies are derived and rebuilt on restore. The pair
// sampler carries drift state (the stale table snapshot and excess-list
// order decide how many RNG draws a Sample consumes), so PairSampler
// captures it verbatim; a nil PairSampler restores to a deterministically
// rebuilt fresh table. Snapshots written before the count sampler was
// removed still decode: gob skips their CountSampler field.
type Memento[S comparable] struct {
	N         int
	Steps     int64
	Effective int64
	RNG       wrand.RNGState
	States    []S // one per slot; freed slots hold the zero value
	Counts    []int64
	Live      []int32
	FreeSlots []int
	PairAB    [][2]int32
	PairSlot  [][]int32
	FreePairs []int

	// PairSampler is the pair sampler's alias drift state.
	PairSampler *wrand.AliasState

	// Sched is the scheduler/fault layer's state; nil for profile-less
	// worlds (older snapshots decode with it nil and restore identically).
	Sched *SchedMemento[S]
}

// Memento captures the World's current state. Everything is deep-copied,
// so the capture stays valid while the run continues. Capture only
// between effective steps — e.g. from the Progress callback.
func (w *World[S]) Memento() *Memento[S] {
	m := &Memento[S]{
		N:         w.n,
		Steps:     w.steps,
		Effective: w.effective,
		RNG:       w.rng.State(),
		States:    append([]S(nil), w.states...),
		Counts:    append([]int64(nil), w.counts...),
		Live:      append([]int32(nil), w.live...),
		FreeSlots: append([]int(nil), w.freeSlots...),
		PairAB:    make([][2]int32, len(w.pairAB)),
		PairSlot:  make([][]int32, len(w.pairSlot)),
		FreePairs: append([]int(nil), w.freePairs...),
	}
	copy(m.PairAB, w.pairAB)
	for i, row := range w.pairSlot {
		m.PairSlot[i] = append([]int32(nil), row...)
	}
	ps := w.pairF.State()
	m.PairSampler = &ps
	if w.profiled {
		m.Sched = &SchedMemento[S]{
			Mult:       append([]int64(nil), w.mult...),
			RateCursor: w.rateCursor,
			Crashed:    append([]S(nil), w.crashed...),
			Frozen:     append([]S(nil), w.frozen...),
			Present:    w.present,
			IdSeq:      w.idSeq,
			HasClock:   w.clock != nil,
		}
		if w.clock != nil {
			m.Sched.Clock = w.clock.State()
		}
	}
	return m
}

// restoreAlias installs captured alias drift state over a freshly rebuilt
// sampler, first cross-checking that the captured live weights match the
// weights derived from the restored slot tables (a mismatch means the
// snapshot is internally inconsistent).
func restoreAlias(a *wrand.Alias, s *wrand.AliasState) error {
	if len(s.Weights) != a.Len() {
		return fmt.Errorf("urn: snapshot pair sampler has %d slots, tables imply %d", len(s.Weights), a.Len())
	}
	for i, sw := range s.Weights {
		if sw != a.Weight(i) {
			return fmt.Errorf("urn: snapshot pair sampler weight %d at slot %d, tables imply %d", sw, i, a.Weight(i))
		}
	}
	return a.SetState(*s)
}

// RestoreMemento rewinds the World to a captured state. The World must
// have been built with the same population size and protocol; its own
// options stay in effect. The slot tables are installed verbatim and the
// derived structures (state index, halted tallies, mass sums, pair
// sampler) are rebuilt, after which the World continues the captured
// trajectory exactly.
func (w *World[S]) RestoreMemento(m *Memento[S]) error {
	if m.N != w.n {
		return fmt.Errorf("urn: snapshot population %d, world has %d", m.N, w.n)
	}
	nSlots := len(m.States)
	if len(m.Counts) != nSlots || len(m.PairSlot) != nSlots {
		return fmt.Errorf("urn: inconsistent snapshot slot tables (%d states, %d counts, %d pair rows)",
			nSlots, len(m.Counts), len(m.PairSlot))
	}
	if (m.Sched != nil) != w.profiled {
		return fmt.Errorf("urn: snapshot scheduler state presence %v, world profile says %v",
			m.Sched != nil, w.profiled)
	}
	var total int64
	for _, c := range m.Counts {
		if c < 0 {
			return fmt.Errorf("urn: snapshot carries negative count %d", c)
		}
		total += c
	}
	wantTotal := int64(w.n)
	if m.Sched != nil {
		// Under churn and fault pools the urn holds the present agents
		// minus the pooled ones, not the founding population.
		wantTotal = m.Sched.Present - int64(len(m.Sched.Crashed)) - int64(len(m.Sched.Frozen))
		if wantTotal < 0 {
			return fmt.Errorf("urn: snapshot pools exceed present population")
		}
		if len(m.Sched.Mult) != nSlots {
			return fmt.Errorf("urn: snapshot carries %d rate multipliers, want %d", len(m.Sched.Mult), nSlots)
		}
		if m.Sched.HasClock != (w.clock != nil) {
			return fmt.Errorf("urn: snapshot fault-clock presence %v, world profile says %v",
				m.Sched.HasClock, w.clock != nil)
		}
	}
	if total != wantTotal {
		return fmt.Errorf("urn: snapshot counts sum to %d, want %d", total, wantTotal)
	}
	if err := w.rng.SetState(m.RNG); err != nil {
		return err
	}
	if m.Sched != nil {
		// Install the scheduler layer before the rebuild loops below:
		// pairWeight and the mass sums depend on the multipliers.
		w.mult = append(w.mult[:0], m.Sched.Mult...)
		w.rateCursor = m.Sched.RateCursor
		w.crashed = append(w.crashed[:0], m.Sched.Crashed...)
		w.frozen = append(w.frozen[:0], m.Sched.Frozen...)
		w.present = m.Sched.Present
		w.idSeq = m.Sched.IdSeq
		w.inUrn = total
		w.poolHalted = 0
		for _, s := range w.crashed {
			if w.proto.Halted(s) {
				w.poolHalted++
			}
		}
		for _, s := range w.frozen {
			if w.proto.Halted(s) {
				w.poolHalted++
			}
		}
		if w.clock != nil {
			if err := w.clock.SetState(m.Sched.Clock, m.Steps); err != nil {
				return err
			}
		}
	}

	w.states = append(w.states[:0], m.States...)
	w.counts = append(w.counts[:0], m.Counts...)
	w.live = append(w.live[:0], m.Live...)
	w.freeSlots = append(w.freeSlots[:0], m.FreeSlots...)
	w.pairAB = append(w.pairAB[:0], m.PairAB...)
	w.freePairs = append(w.freePairs[:0], m.FreePairs...)
	w.pairSlot = w.pairSlot[:0]
	for _, row := range m.PairSlot {
		if len(row) != nSlots {
			return fmt.Errorf("urn: ragged snapshot pair table")
		}
		for _, ps := range row {
			// -1 means unresponsive; anything else must index pairAB, or a
			// later setCount would index the pair tree out of range.
			if ps < -1 || int(ps) >= len(m.PairAB) {
				return fmt.Errorf("urn: snapshot pair index %d out of range", ps)
			}
		}
		w.pairSlot = append(w.pairSlot, append([]int32(nil), row...))
	}

	// Rebuild the derived structures: positions, the state index, halted
	// tallies, mass sums and the pair sampler.
	w.haltedSlot = make([]bool, nSlots)
	w.livePos = make([]int32, nSlots)
	for i := range w.livePos {
		w.livePos[i] = -1
	}
	seen := make(map[S]bool, len(w.live))
	w.haltedCount = 0
	w.sumT, w.sumS2 = 0, 0
	for pos, slot := range w.live {
		if slot < 0 || int(slot) >= nSlots {
			return fmt.Errorf("urn: snapshot live slot %d out of range", slot)
		}
		w.livePos[slot] = int32(pos)
		s := w.states[slot]
		if seen[s] {
			return fmt.Errorf("urn: snapshot holds state %v in two slots", s)
		}
		seen[s] = true
		w.haltedSlot[slot] = w.proto.Halted(s)
		if w.haltedSlot[slot] {
			w.haltedCount += w.counts[slot]
		}
		w.bumpMass(int(slot), w.counts[slot])
	}
	for slot, c := range w.counts {
		if c > 0 && w.livePos[slot] < 0 {
			return fmt.Errorf("urn: snapshot slot %d holds %d agents but is not live", slot, c)
		}
	}
	free := make(map[int]bool, len(w.freePairs))
	for _, ps := range w.freePairs {
		free[ps] = true
	}
	w.pairF = wrand.NewAlias(len(w.pairAB))
	for ps, ab := range w.pairAB {
		if free[ps] {
			continue
		}
		i, j := int(ab[0]), int(ab[1])
		if i < 0 || i >= nSlots || j < 0 || j >= nSlots {
			return fmt.Errorf("urn: snapshot pair %d references slot out of range", ps)
		}
		w.pairF.Set(ps, w.pairWeight(i, j))
	}
	if err := w.checkPairTable(free); err != nil {
		return err
	}
	// Reinstall captured drift state over the fresh table so the restored
	// world replays the captured RNG stream exactly.
	if m.PairSampler != nil {
		if err := restoreAlias(w.pairF, m.PairSampler); err != nil {
			return err
		}
	}
	w.skipW = 0
	w.skipC = 0
	w.steps = m.Steps
	w.effective = m.Effective
	return nil
}

// checkPairTable rejects a restored pair table that disagrees with the
// protocol: every pair of live slots must be responsive exactly when its
// states interact effectively, in both orders alike, through a live entry
// naming those two slots. A crafted table that broke this would make a
// later step draw an ineffective pair and panic. The memento carries the
// table as nSlots x nSlots entries, so the check is linear in its size.
func (w *World[S]) checkPairTable(free map[int]bool) error {
	for _, a := range w.live {
		for _, b := range w.live {
			i, j := int(a), int(b)
			if j < i {
				continue
			}
			_, _, eff := w.proto.Apply(w.states[i], w.states[j])
			if i != j {
				if _, _, rev := w.proto.Apply(w.states[j], w.states[i]); rev != eff {
					return fmt.Errorf("urn: snapshot states %v and %v interact effectively in one order only",
						w.states[i], w.states[j])
				}
			}
			ps := w.pairSlot[i][j]
			if w.pairSlot[j][i] != ps || (ps >= 0) != eff {
				return fmt.Errorf("urn: snapshot pair table disagrees with the protocol at slots %d and %d", i, j)
			}
			if ps >= 0 {
				ab := w.pairAB[ps]
				if free[int(ps)] || !(int(ab[0]) == i && int(ab[1]) == j || int(ab[0]) == j && int(ab[1]) == i) {
					return fmt.Errorf("urn: snapshot pair entry %d does not name slots %d and %d", ps, i, j)
				}
			}
		}
	}
	return nil
}
