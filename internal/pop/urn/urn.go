// Package urn implements an urn-compressed population-protocol engine: the
// configuration is stored as a multiset of distinct states (an "urn" of
// state counts) instead of a []S of agents, so memory and per-interaction
// cost scale with the number of distinct states m, not the population size
// n. For the Section 5 counting protocols m stays O(1), which makes
// populations of 10^6 and beyond simulable.
//
// The engine reproduces internal/pop's default pair scheduler in
// distribution. A uniform random unordered agent pair corresponds to a
// state pair {s, t} with probability c_s*c_t / C (s != t) or
// c_s*(c_s-1)/2 / C (s == t), where C = n(n-1)/2; Run samples the
// responsive part of this law through an O(1) wrand.Alias sampler.
//
// Pair selection is pluggable here too (internal/sched, via ApplyProfile),
// within what the compression can express. Identities are compressed
// away, so the weighted policy becomes per-slot weight multipliers on the
// same sampler — activity rates attach to state classes in order of
// first appearance, and the all-pairs total C generalizes to
// (T^2 - S2)/2 for T = sum m_i*c_i, S2 = sum m_i^2*c_i — while the
// id-based clustered and adversarial-delay policies are rejected at
// validation. Fault injection (crashes, freezes, churn) moves agents
// between the urn and per-fault side pools on a dedicated event clock;
// geometric skips are capped at the next pending fault event so no block
// jumps over one. A run without a profile never touches any of this and
// keeps the historical RNG stream byte for byte.
//
// The headline speedup is ineffective-step skipping: the engine maintains
// the total weight W of responsive state pairs (pairs whose interaction is
// effective) next to the all-pairs total C. A run of the exact scheduler
// between two effective interactions is a sequence of Bernoulli(p = W/C)
// failures, so its length is geometric and can be drawn in O(1); the
// simulated clock still advances in exact scheduler steps. Convergence
// tails that are >99.99% ineffective — the regime that caps the exact
// engine near n = 10^3 — collapse to one random draw each.
//
// On top of the skipping, Run executes effective interactions in blocks of
// up to blockSize conditional draws (the batched step loop, its only
// stepping path): the stop-condition, cancellation, progress and budget
// checks move to block boundaries, and the per-interaction bookkeeping
// applies transitions directly on the drawn slots — recycling a slot
// whose count reached zero in place for a newly appearing state instead
// of retiring and reallocating it. Each draw in a block is a geometric
// skip followed by a weighted responsive pair, conditioned on the
// exactly-maintained weights, so a block has the law of the same number
// of effective interactions of the exact scheduler; see DESIGN.md ("The
// urn engine") for the argument. Slot labeling is bookkeeping only: it
// never changes the state multiset.
//
// Protocol contract beyond pop.Protocol: S must be comparable, Apply must
// be a pure function of the two states (the engine calls it both to
// classify pair responsiveness and to apply transitions), and its
// effectiveness flag must not depend on argument order (Apply(a, b) and
// Apply(b, a) are either both effective or both not — true of any
// well-formed protocol on unordered pairs, and checked at run time). See
// DESIGN.md ("The urn engine") for the full equivalence argument.
package urn

import (
	"context"
	"fmt"
	"math"

	"shapesol/internal/obs"
	"shapesol/internal/pop"
	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// Protocol is the urn engine's protocol contract. It is pop.Protocol[S]
// narrowed to comparable state types, so any value-state protocol of
// internal/pop (e.g. counting.UpperBound) satisfies both interfaces.
type Protocol[S comparable] interface {
	InitialState(id, n int) S
	Apply(a, b S) (na, nb S, effective bool)
	Halted(s S) bool
}

// Result summarizes a Run. Steps counts scheduler selections of the
// simulated exact scheduler, including the Skipped ineffective ones that
// were advanced past in O(1).
type Result struct {
	Steps     int64
	Effective int64
	Skipped   int64
	Reason    pop.StopReason
}

// World is one urn-compressed population instance. Not safe for concurrent
// use; run independent worlds in parallel instead (see internal/runner).
type World[S comparable] struct {
	n          int
	totalPairs int64 // n(n-1)/2
	opts       pop.Options
	proto      Protocol[S]
	rng        *wrand.RNG

	// Slot tables: one slot per distinct present state. Freed slots are
	// recycled so steady-state churn (e.g. a leader whose counter state
	// changes every effective interaction) allocates nothing.
	states     []S
	counts     []int64
	haltedSlot []bool
	freeSlots  []int
	live       []int32 // live slots, swap-removed
	livePos    []int32 // slot -> index in live, -1 when free

	// slotOf maps a present state to its slot, but only while more than
	// scanThreshold states are live: below that a linear scan of live is
	// cheaper than hashing the state, so mutations merely invalidate the
	// map (slotOfValid) and it is rebuilt lazily if the urn grows past the
	// threshold again.
	slotOf      map[S]int
	slotOfValid bool

	// pairF holds one entry per *responsive* unordered slot pair {i, j},
	// weighted by the number of agent pairs realizing it (c_i*c_j, or
	// c_i*(c_i-1)/2 on the diagonal). Its Total() is the responsive weight
	// W of the geometric skip.
	pairF     *wrand.Alias
	pairAB    [][2]int32
	pairSlot  [][]int32 // [i][j] pair entry of {i, j}, -1 when unresponsive
	freePairs []int

	// skipW/skipDenom cache the geometric-skip log denominator while the
	// responsive weight is unchanged (recomputing it from scratch is
	// deterministic, so neither field is snapshot state).
	skipW     int64
	skipDenom float64

	// Scheduler/fault layer (ApplyProfile). profiled gates every dynamic
	// path; a profile-less world leaves all of this zero and runs the
	// historical code byte for byte. mult is the per-slot activity-rate
	// multiplier of the weighted policy (1 everywhere otherwise),
	// rateCursor the next state-class index into Profile.Rates. sumT and
	// sumS2 maintain T = sum m_i*c_i and S2 = sum m_i^2*c_i over the
	// in-urn population, so the all-pairs total (T^2-S2)/2 follows fault
	// and churn changes. Crashed and frozen agents live outside the urn in
	// side pools (they cannot be paired); poolHalted counts the halted
	// ones among them. skipC joins skipW as the skip-denominator cache key
	// once the all-pairs total is dynamic.
	prof       sched.Profile
	profiled   bool
	mult       []int64
	rateCursor int64
	sumT       int64
	sumS2      int64
	clock      *sched.Clock
	crashed    []S
	frozen     []S
	poolHalted int64
	present    int64
	inUrn      int64
	idSeq      int64
	skipC      int64

	steps, effective int64
	haltedCount      int64

	// metrics, when non-nil, receives fleet-wide counter deltas at the
	// CheckEvery boundary and at run exit. The pub* fields are the
	// already-published baselines (set at SetMetrics time, so restored
	// runs never re-publish their snapshot's counts).
	metrics                *obs.EngineMetrics
	faultEvents            int64
	blockFlushes           int64
	pubSteps, pubEffective int64
	pubFault, pubFlush     int64
	pubRebuilds            int64
}

// blockSize is the batched loop's block length in effective interactions
// (clamped to the CheckEvery cadence).
const blockSize = 256

// scanThreshold is the live-slot count below which state lookup scans the
// live list instead of maintaining the slotOf map: hashing a state costs
// more than a dozen-odd state compares, and the Section 5 protocols keep
// the number of distinct states far below this.
const scanThreshold = 16

// lookup resolves a state to its live slot.
func (w *World[S]) lookup(s S) (int, bool) {
	if len(w.live) <= scanThreshold {
		for _, k := range w.live {
			if w.states[k] == s {
				return int(k), true
			}
		}
		return 0, false
	}
	w.ensureSlotOf()
	slot, ok := w.slotOf[s]
	return slot, ok
}

// ensureSlotOf rebuilds the state-to-slot map after a phase of scan-mode
// mutations left it stale.
func (w *World[S]) ensureSlotOf() {
	if w.slotOfValid {
		return
	}
	clear(w.slotOf)
	for _, k := range w.live {
		w.slotOf[w.states[k]] = int(k)
	}
	w.slotOfValid = true
}

// mapInsert records state s at slot in the lookup structure; mapRemove
// drops it. In scan mode the map is simply invalidated.
func (w *World[S]) mapInsert(s S, slot int) {
	if len(w.live) <= scanThreshold {
		w.slotOfValid = false
		return
	}
	w.ensureSlotOf()
	w.slotOf[s] = slot
}

func (w *World[S]) mapRemove(s S) {
	if len(w.live) <= scanThreshold {
		w.slotOfValid = false
		return
	}
	w.ensureSlotOf()
	delete(w.slotOf, s)
}

// New builds a population of n agents in their initial states. n must be at
// least 2. Options are interpreted exactly as by pop.New (MaxSteps defaults
// to 100 million scheduler steps).
func New[S comparable](n int, proto Protocol[S], opts pop.Options) *World[S] {
	if n < 2 {
		panic(fmt.Sprintf("urn: population size %d < 2", n))
	}
	sched.RunDefaults(&opts.MaxSteps, &opts.CheckEvery, 100_000_000)
	w := &World[S]{
		n:           n,
		totalPairs:  int64(n) * int64(n-1) / 2,
		opts:        opts,
		proto:       proto,
		rng:         wrand.NewRNG(opts.Seed),
		slotOf:      make(map[S]int),
		slotOfValid: true,
		pairF:       wrand.NewAlias(0),
	}
	for id := 0; id < n; id++ {
		w.addOne(proto.InitialState(id, n))
	}
	return w
}

// ApplyProfile installs a scheduler/fault profile on a freshly built
// World (before any stepping; a snapshot restore re-installs the profile
// first and then overwrites the layer's state). A profile that
// normalizes to the zero value leaves the engine on its historical path,
// byte-identical to a profile-less run. The id-based policies (clustered,
// adversarial-delay) are rejected by validation. Fault events apply at
// block boundaries.
func (w *World[S]) ApplyProfile(p sched.Profile) error {
	np, err := p.Normalize(sched.EngineUrn, w.n)
	if err != nil {
		return err
	}
	if np.IsZero() {
		return nil
	}
	if w.profiled {
		return fmt.Errorf("urn: profile already applied")
	}
	if w.steps != 0 || w.effective != 0 {
		return fmt.Errorf("urn: profile applied to a world that already stepped")
	}
	w.prof = np
	w.profiled = true
	w.present = int64(w.n)
	w.inUrn = int64(w.n)
	w.idSeq = int64(w.n)
	w.mult = make([]int64, len(w.states))
	// Initial state classes take their rates in first-appearance order:
	// the live list is appended in exactly that order during New.
	for _, slot := range w.live {
		w.mult[slot] = w.nextMult()
	}
	for _, slot := range w.live {
		w.sumT += w.mult[slot] * w.counts[slot]
		w.sumS2 += w.mult[slot] * w.mult[slot] * w.counts[slot]
		w.syncPairs(int(slot))
	}
	if np.HasFaults() {
		w.clock = sched.NewClock(np, w.opts.Seed)
	}
	return nil
}

// nextMult returns the activity-rate multiplier of the next state class
// to appear (1 when the profile carries no rates).
func (w *World[S]) nextMult() int64 {
	if len(w.prof.Rates) == 0 {
		return 1
	}
	m := w.prof.Rates[w.rateCursor%int64(len(w.prof.Rates))]
	w.rateCursor++
	return m
}

// allPairs returns the current all-pairs weight total: the static
// n(n-1)/2 on the historical path, the dynamic (T^2-S2)/2 under a
// profile (which tracks rate multipliers, faults and churn).
func (w *World[S]) allPairs() int64 {
	if !w.profiled {
		return w.totalPairs
	}
	return (w.sumT*w.sumT - w.sumS2) / 2
}

// N returns the founding population size (arrivals and departures do not
// change it; see Present).
func (w *World[S]) N() int { return w.n }

// Present returns the number of non-departed agents, including crashed
// and frozen ones waiting in the side pools.
func (w *World[S]) Present() int64 {
	if !w.profiled {
		return int64(w.n)
	}
	return w.present
}

// Steps returns the number of simulated scheduler selections so far.
func (w *World[S]) Steps() int64 { return w.steps }

// Effective returns the number of effective interactions so far.
func (w *World[S]) Effective() int64 { return w.effective }

// Distinct returns the number of distinct states currently present.
func (w *World[S]) Distinct() int { return len(w.live) }

// HaltedCount returns the number of agents in halting states.
func (w *World[S]) HaltedCount() int64 { return w.haltedCount }

// ResponsiveWeight returns the number of unordered agent pairs whose
// interaction would be effective in the current configuration.
func (w *World[S]) ResponsiveWeight() int64 { return w.pairF.Total() }

// Count returns the multiplicity of state s.
func (w *World[S]) Count(s S) int64 {
	if slot, ok := w.lookup(s); ok {
		return w.counts[slot]
	}
	return 0
}

// CountWhere returns the number of agents whose state satisfies pred.
func (w *World[S]) CountWhere(pred func(S) bool) int64 {
	var total int64
	for _, slot := range w.live {
		if pred(w.states[slot]) {
			total += w.counts[slot]
		}
	}
	return total
}

// FindState returns some present state satisfying pred. The iteration
// order is arbitrary but deterministic given the operation history.
func (w *World[S]) FindState(pred func(S) bool) (S, bool) {
	for _, slot := range w.live {
		if pred(w.states[slot]) {
			return w.states[slot], true
		}
	}
	var zero S
	return zero, false
}

// ForEach visits every distinct present state with its multiplicity.
func (w *World[S]) ForEach(visit func(s S, count int64)) {
	for _, slot := range w.live {
		visit(w.states[slot], w.counts[slot])
	}
}

// pairWeight returns the weight of the unordered slot pair {i, j} under
// the current counts: the number of agent pairs realizing it, scaled by
// the slots' activity-rate multipliers when a weighted profile is
// installed (each agent pair {u, v} carries mass m_u*m_v).
func (w *World[S]) pairWeight(i, j int) int64 {
	if i == j {
		c := w.counts[i]
		p := c * (c - 1) / 2
		if w.mult != nil {
			p *= w.mult[i] * w.mult[i]
		}
		return p
	}
	p := w.counts[i] * w.counts[j]
	if w.mult != nil {
		p *= w.mult[i] * w.mult[j]
	}
	return p
}

// allocSlot installs state s in a fresh (or recycled) slot with count 0 and
// classifies its responsiveness against every live slot, including itself.
func (w *World[S]) allocSlot(s S) int {
	var slot int
	if k := len(w.freeSlots); k > 0 {
		slot = w.freeSlots[k-1]
		w.freeSlots = w.freeSlots[:k-1]
	} else {
		slot = len(w.states)
		var zero S
		w.states = append(w.states, zero)
		w.counts = append(w.counts, 0)
		w.haltedSlot = append(w.haltedSlot, false)
		w.livePos = append(w.livePos, -1)
		if w.mult != nil {
			w.mult = append(w.mult, 0)
		}
		w.pairSlot = append(w.pairSlot, nil)
		for i := range w.pairSlot {
			for len(w.pairSlot[i]) < len(w.states) {
				w.pairSlot[i] = append(w.pairSlot[i], -1)
			}
		}
	}
	w.states[slot] = s
	w.counts[slot] = 0
	w.haltedSlot[slot] = w.proto.Halted(s)
	if w.mult != nil {
		w.mult[slot] = w.nextMult()
	}
	w.livePos[slot] = int32(len(w.live))
	w.live = append(w.live, int32(slot))
	w.mapInsert(s, slot)
	for _, j := range w.live {
		_, _, eff := w.proto.Apply(s, w.states[j])
		if int(j) != slot {
			// Enforce the contract at classification time: a protocol whose
			// effectiveness depends on argument order would make the urn
			// scheduler silently drop (or double) interactions.
			if _, _, rev := w.proto.Apply(w.states[j], s); rev != eff {
				panic("urn: Apply effectiveness depends on argument order; every scheduling policy of the compressed engine (see internal/sched) requires order-independent effectiveness")
			}
		}
		if eff {
			w.addPair(slot, int(j))
		}
	}
	return slot
}

// removePair retires the responsive-pair entry ps of slot pair {i, j}.
func (w *World[S]) removePair(i, j int, ps int32) {
	w.pairF.Set(int(ps), 0)
	w.pairSlot[i][j] = -1
	w.pairSlot[j][i] = -1
	w.freePairs = append(w.freePairs, int(ps))
}

// freeSlot retires a slot whose count reached zero: its responsive pairs,
// index entries and map key are all removed so the slot can be recycled.
func (w *World[S]) freeSlot(slot int) {
	for _, j := range w.live {
		if ps := w.pairSlot[slot][j]; ps >= 0 {
			w.removePair(slot, int(j), ps)
		}
	}
	pos := w.livePos[slot]
	last := int32(len(w.live) - 1)
	moved := w.live[last]
	w.live[pos] = moved
	w.livePos[moved] = pos
	w.live = w.live[:last]
	w.livePos[slot] = -1
	w.mapRemove(w.states[slot])
	var zero S
	w.states[slot] = zero
	w.freeSlots = append(w.freeSlots, slot)
}

// addPair registers the unordered slot pair {i, j} as responsive.
func (w *World[S]) addPair(i, j int) {
	var ps int
	if k := len(w.freePairs); k > 0 {
		ps = w.freePairs[k-1]
		w.freePairs = w.freePairs[:k-1]
	} else {
		ps = len(w.pairAB)
		w.pairAB = append(w.pairAB, [2]int32{})
		w.pairF.Grow(len(w.pairAB))
	}
	w.pairAB[ps] = [2]int32{int32(i), int32(j)}
	w.pairSlot[i][j] = int32(ps)
	w.pairSlot[j][i] = int32(ps)
	w.pairF.Set(ps, w.pairWeight(i, j))
}

// setCount updates a slot's multiplicity and resynchronizes everything
// touching it: the halted tally, the mass sums and the weights of all
// responsive pairs involving the slot (O(m) sampler updates). Set-up and
// fault events use it; transitions use setCountOnly + deferred syncs
// instead.
func (w *World[S]) setCount(slot int, c int64) {
	old := w.counts[slot]
	if old == c {
		return
	}
	w.counts[slot] = c
	if w.haltedSlot[slot] {
		w.haltedCount += c - old
	}
	w.bumpMass(slot, c-old)
	w.syncPairs(slot)
}

// bumpMass tracks the in-urn weighted mass sums behind the dynamic
// all-pairs total when a profile is installed.
func (w *World[S]) bumpMass(slot int, delta int64) {
	if !w.profiled {
		return
	}
	m := w.mult[slot]
	w.sumT += m * delta
	w.sumS2 += m * m * delta
}

// setCountOnly updates a slot's multiplicity, the halted tally and the
// mass sums, deferring the pair-weight sync: the responsive-pair weights
// stay stale until the caller syncPairs every touched slot (so a slot
// passing through count zero mid-transition — a leader state relabeling,
// say — never pushes its possibly-huge pair weights through zero, which
// would thrash the alias sampler's mass-based rebuild policy).
func (w *World[S]) setCountOnly(slot int, c int64) {
	old := w.counts[slot]
	if old == c {
		return
	}
	w.counts[slot] = c
	if w.haltedSlot[slot] {
		w.haltedCount += c - old
	}
	w.bumpMass(slot, c-old)
}

// syncPairs refreshes the weights of every responsive pair involving slot
// from the current counts.
func (w *World[S]) syncPairs(slot int) {
	for _, j := range w.live {
		if ps := w.pairSlot[slot][j]; ps >= 0 {
			w.pairF.Set(int(ps), w.pairWeight(slot, int(j)))
		}
	}
}

// addOne adds one agent in state s to the urn.
func (w *World[S]) addOne(s S) {
	slot, ok := w.lookup(s)
	if !ok {
		slot = w.allocSlot(s)
	}
	w.setCount(slot, w.counts[slot]+1)
}

// removeOne removes one agent in state s from the urn.
func (w *World[S]) removeOne(s S) {
	slot, ok := w.lookup(s)
	if !ok {
		panic("urn: removing an absent state")
	}
	c := w.counts[slot] - 1
	w.setCount(slot, c)
	if c == 0 {
		w.freeSlot(slot)
	}
}

// replaceSlot relabels a live zero-count slot with a new state in place:
// instead of retiring the slot and allocating a fresh one, the slot keeps
// its position in every table and only the responsiveness entries that
// actually changed are touched. The relabeling is measure-preserving —
// which agent-pair mass lives at which pair index never influences the
// sampled *states* — so the fast path is distribution-identical to
// freeSlot+allocSlot (see DESIGN.md). The reverse-order contract probe
// runs only when the forward probe claims unresponsiveness; a violation in
// the other direction is still caught when the pair is drawn.
func (w *World[S]) replaceSlot(slot int, s S) {
	w.mapRemove(w.states[slot])
	w.states[slot] = s
	w.mapInsert(s, slot)
	w.haltedSlot[slot] = w.proto.Halted(s)
	if w.mult != nil {
		// The relabeled slot hosts a newly appearing state class; its rate
		// changes only while the count is zero, so the running T/S2 sums
		// and the (stale) pair weights are unaffected until the caller
		// sets the new count.
		w.mult[slot] = w.nextMult()
	}
	for _, j := range w.live {
		_, _, eff := w.proto.Apply(s, w.states[j])
		if !eff && int(j) != slot {
			if _, _, rev := w.proto.Apply(w.states[j], s); rev != eff {
				panic("urn: Apply effectiveness depends on argument order; every scheduling policy of the compressed engine (see internal/sched) requires order-independent effectiveness")
			}
		}
		ps := w.pairSlot[slot][j]
		if eff && ps < 0 {
			w.addPair(slot, int(j))
		} else if !eff && ps >= 0 {
			w.removePair(slot, int(j), ps)
		}
		// eff && ps >= 0: the entry survives verbatim; the transition's
		// final syncPairs refreshes its weight.
	}
}

// addOneVia adds one agent in state s, knowing the interaction that
// produced it was drawn on slots (i, j): the common cases — the state of a
// drawn slot reappearing, or a brand-new state replacing a drained one —
// resolve with slot-index compares and an in-place relabel instead of map
// traffic and slot churn. It returns the slot the agent landed in; pair
// weights are left stale (see setCountOnly).
func (w *World[S]) addOneVia(s S, i, j int) int {
	if w.states[i] == s {
		w.setCountOnly(i, w.counts[i]+1)
		return i
	}
	if j != i && w.states[j] == s {
		w.setCountOnly(j, w.counts[j]+1)
		return j
	}
	if slot, ok := w.lookup(s); ok {
		w.setCountOnly(slot, w.counts[slot]+1)
		return slot
	}
	var slot int
	switch {
	case w.counts[i] == 0:
		slot = i
		w.replaceSlot(i, s)
	case j != i && w.counts[j] == 0:
		slot = j
		w.replaceSlot(j, s)
	default:
		slot = w.allocSlot(s)
	}
	w.setCountOnly(slot, 1)
	return slot
}

// applyTransition applies one effective interaction drawn on slots (i, j)
// — states a, b already read, protocol results na, nb — using the batched
// fast path: direct-slot decrements, slot-aware additions, deferred
// retirement of sources that stayed drained, and a single pair-weight
// sync per touched slot at the end (so intermediate zero counts never
// reach the pair sampler). It is the bookkeeping counterpart of
// removeOne/removeOne/addOne/addOne with an identical resulting multiset;
// only the slot labeling can differ.
func (w *World[S]) applyTransition(i, j int, na, nb S) {
	if i == j {
		w.setCountOnly(i, w.counts[i]-2)
	} else {
		w.setCountOnly(i, w.counts[i]-1)
		w.setCountOnly(j, w.counts[j]-1)
	}
	s1 := w.addOneVia(na, i, j)
	s2 := w.addOneVia(nb, i, j)
	if w.counts[i] == 0 {
		w.freeSlot(i)
	}
	if j != i && w.counts[j] == 0 {
		w.freeSlot(j)
	}
	// Refresh the responsive-pair weights of every slot the transition
	// touched, each exactly once (shared pairs resync to an unchanged
	// value, which the samplers treat as a no-op).
	if w.livePos[i] >= 0 {
		w.syncPairs(i)
	}
	if j != i && w.livePos[j] >= 0 {
		w.syncPairs(j)
	}
	if s1 != i && s1 != j {
		w.syncPairs(s1)
	}
	if s2 != i && s2 != j && s2 != s1 {
		w.syncPairs(s2)
	}
}

// stopped reports whether a halting stop condition currently holds.
// Halted agents waiting in the crash/freeze pools still count; under
// churn "all" means all present agents.
func (w *World[S]) stopped() bool {
	h := w.haltedCount + w.poolHalted
	all := int64(w.n)
	if w.profiled {
		all = w.present
	}
	return (w.opts.StopWhenAnyHalted && h > 0) ||
		(w.opts.StopWhenAllHalted && all > 0 && h == all)
}

// stepBlock runs up to limit effective interactions. Each draw advances
// the simulated clock past a geometric run of ineffective selections —
// Bernoulli(W/C) failures of the exact scheduler, floor(log(U)/log(1-p))
// for U uniform on (0, 1] — and then applies a responsive pair drawn by
// weight, conditioned on the exactly-maintained weights. The log
// denominator is cached while W and C are unchanged. It reports whether a
// stop condition fired and whether the step budget (or a frozen
// configuration) exhausted the run.
func (w *World[S]) stepBlock(limit int64) (halted, exhausted bool) {
	// Under a fault profile geometric skips must not jump over a pending
	// fault event: the block's step horizon is capped at the next firing
	// time. Stopping a skip at the horizon is exact — skip >= rem means
	// the first rem selections were all ineffective, and by memorylessness
	// the post-event remainder is geometric again, redrawn fresh.
	horizon := w.opts.MaxSteps
	eventCap := false
	if w.clock != nil {
		if next := w.clock.NextPending(); next < horizon {
			horizon, eventCap = next, true
		}
	}
	allPairs := w.allPairs()
	for t := int64(0); t < limit; t++ {
		weight := w.pairF.Total()
		if weight <= 0 || allPairs <= 0 {
			// Frozen configuration: nothing can interact until the next
			// fault event (or ever, without one).
			if w.steps < horizon {
				w.steps = horizon
			}
			return false, !eventCap
		}
		if weight < allPairs {
			if weight != w.skipW || allPairs != w.skipC {
				w.skipW, w.skipC = weight, allPairs
				w.skipDenom = math.Log1p(-float64(weight) / float64(allPairs))
			}
			rem := horizon - w.steps
			skip := w.rng.GeometricRun(w.skipDenom, rem)
			if skip >= rem {
				if w.steps < horizon {
					w.steps = horizon
				}
				return false, !eventCap
			}
			w.steps += skip
		}
		w.steps++
		w.effective++
		ps, _ := w.pairF.Sample(w.rng)
		i, j := int(w.pairAB[ps][0]), int(w.pairAB[ps][1])
		a, b := w.states[i], w.states[j]
		if i != j && w.rng.Int63n(2) == 1 {
			a, b = b, a
			i, j = j, i
		}
		na, nb, effective := w.proto.Apply(a, b)
		if !effective {
			panic("urn: Apply effectiveness depends on argument order; every scheduling policy of the compressed engine (see internal/sched) requires order-independent effectiveness")
		}
		w.applyTransition(i, j, na, nb)
		if w.profiled {
			// Transitions move agents between rate classes, so the
			// all-pairs total is dynamic under a profile.
			allPairs = w.allPairs()
		}
		if w.stopped() {
			return true, false
		}
		if w.steps >= w.opts.MaxSteps {
			return false, false
		}
	}
	return false, false
}

// SetMetrics attaches a fleet-wide metrics sink. Call it after any
// snapshot restore: current totals become the published baseline, so a
// resumed run only publishes steps it simulated itself. Publishing
// happens on the CheckEvery cadence and at run exit; the sampling hot
// path and block loop are untouched.
func (w *World[S]) SetMetrics(m *obs.EngineMetrics) {
	w.metrics = m
	w.pubSteps, w.pubEffective = w.steps, w.effective
	w.pubFault, w.pubFlush = w.faultEvents, w.blockFlushes
	w.pubRebuilds = w.pairF.Rebuilds()
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
	stepsD, effD := w.steps-w.pubSteps, w.effective-w.pubEffective
	w.metrics.Steps.Add(stepsD)
	w.metrics.Effective.Add(effD)
	w.metrics.Skipped.Add(stepsD - effD)
	w.metrics.FaultEvents.Add(w.faultEvents - w.pubFault)
	w.metrics.BlockFlushes.Add(w.blockFlushes - w.pubFlush)
	rb := w.pairF.Rebuilds()
	w.metrics.AliasRebuilds.Add(rb - w.pubRebuilds)
	w.pubSteps, w.pubEffective = w.steps, w.effective
	w.pubFault, w.pubFlush = w.faultEvents, w.blockFlushes
	w.pubRebuilds = rb
}

// Run executes the compressed scheduler until a stop condition fires. Stop
// conditions already true at entry return immediately without stepping.
// Skipped steps are all ineffective and cannot change any agent's halting
// status, so checking stop conditions only after effective interactions is
// exact. It is RunContext under a background context.
func (w *World[S]) Run() Result {
	return w.RunContext(context.Background())
}

// RunContext is Run under a cancelable context. Cancellation is observed
// after every block and stops the run with pop.ReasonCanceled. The
// Progress callback and the metrics fire every Options.CheckEvery
// *effective* interactions with the simulated step count — skipped
// ineffective runs cost no work, so the exact scheduler's step-count
// cadence would be meaningless here. Effective interactions run in blocks
// aligned to the CheckEvery cadence, so a progress point always falls on
// a block boundary.
func (w *World[S]) RunContext(ctx context.Context) Result {
	if ctx.Err() != nil {
		return w.result(pop.ReasonCanceled)
	}
	if w.stopped() {
		return w.result(pop.ReasonHalted)
	}
	for w.steps < w.opts.MaxSteps {
		if w.clock != nil {
			w.applyFaults()
			if w.stopped() {
				// A fault can halt the run by itself — e.g. the departure
				// of the last non-halted agent.
				return w.result(pop.ReasonHalted)
			}
		}
		limit := min(w.opts.CheckEvery-w.effective%w.opts.CheckEvery, blockSize)
		halted, exhausted := w.stepBlock(limit)
		w.blockFlushes++
		if halted {
			return w.result(pop.ReasonHalted)
		}
		if exhausted {
			break
		}
		// Polled on every block, not on the effective cadence: a fault
		// clock caps blocks at its events, so a churned run can go
		// arbitrarily long between effective interactions.
		if ctx.Err() != nil {
			return w.result(pop.ReasonCanceled)
		}
		if w.effective%w.opts.CheckEvery == 0 {
			w.publishMetrics()
			if w.opts.Progress != nil {
				w.opts.Progress(w.steps)
			}
		}
	}
	return w.result(pop.ReasonMaxSteps)
}

// applyFaults drains every fault event due at the current simulated step.
// It runs at block boundaries (and after event-capped skips), so events
// apply on the block cadence in their exact order; each lane reschedules
// from its own firing time, keeping the timeline Poisson-faithful however
// far a block jumped.
func (w *World[S]) applyFaults() {
	for {
		ev, ok := w.clock.NextDue(w.steps)
		if !ok {
			return
		}
		w.faultEvents++
		switch ev {
		case sched.EvCrash:
			w.poolOne(&w.crashed)
		case sched.EvRecover:
			w.unpoolOne(&w.crashed)
		case sched.EvFreeze:
			w.poolOne(&w.frozen)
		case sched.EvThaw:
			w.unpoolOne(&w.frozen)
		case sched.EvArrive:
			w.addOne(w.proto.InitialState(int(w.idSeq), w.n))
			w.idSeq++
			w.present++
			w.inUrn++
		case sched.EvDepart:
			w.departOne()
		}
	}
}

// urnVictim draws a uniformly random in-urn agent with the fault RNG,
// returning its slot. The walk over live slots is O(m); fault events are
// rare on the simulated-step scale, so this never shows up next to the
// sampling hot path.
func (w *World[S]) urnVictim() (int, bool) {
	if w.inUrn <= 0 {
		return 0, false
	}
	r := w.clock.RNG().Int63n(w.inUrn)
	for _, slot := range w.live {
		if r < w.counts[slot] {
			return int(slot), true
		}
		r -= w.counts[slot]
	}
	panic("urn: victim walk out of sync with counts")
}

// poolOne moves one uniformly random in-urn agent into a fault pool
// (crash or freeze): pooled agents cannot be paired, which is exactly
// what removing their mass from the urn expresses.
func (w *World[S]) poolOne(pool *[]S) {
	slot, ok := w.urnVictim()
	if !ok {
		return
	}
	s := w.states[slot]
	w.removeOne(s)
	w.inUrn--
	if w.proto.Halted(s) {
		w.poolHalted++
	}
	*pool = append(*pool, s)
}

// unpoolOne returns one uniformly random pooled agent to the urn
// (recovery or thaw).
func (w *World[S]) unpoolOne(pool *[]S) {
	k := len(*pool)
	if k == 0 {
		return
	}
	idx := w.clock.RNG().Intn(k)
	s := (*pool)[idx]
	(*pool)[idx] = (*pool)[k-1]
	*pool = (*pool)[:k-1]
	if w.proto.Halted(s) {
		w.poolHalted--
	}
	w.addOne(s)
	w.inUrn++
}

// departOne removes one uniformly random present agent for good —
// in-urn agents and pooled (crashed/frozen) ones are equally likely.
func (w *World[S]) departOne() {
	if w.present <= 0 {
		return
	}
	r := w.clock.RNG().Int63n(w.present)
	switch {
	case r < w.inUrn:
		slot, ok := w.urnVictim()
		if !ok {
			return
		}
		w.removeOne(w.states[slot])
		w.inUrn--
	case r < w.inUrn+int64(len(w.crashed)):
		idx := w.clock.RNG().Intn(len(w.crashed))
		s := w.crashed[idx]
		w.crashed[idx] = w.crashed[len(w.crashed)-1]
		w.crashed = w.crashed[:len(w.crashed)-1]
		if w.proto.Halted(s) {
			w.poolHalted--
		}
	default:
		idx := w.clock.RNG().Intn(len(w.frozen))
		s := w.frozen[idx]
		w.frozen[idx] = w.frozen[len(w.frozen)-1]
		w.frozen = w.frozen[:len(w.frozen)-1]
		if w.proto.Halted(s) {
			w.poolHalted--
		}
	}
	w.present--
}

func (w *World[S]) result(reason pop.StopReason) Result {
	w.publishMetrics()
	return Result{
		Steps:     w.steps,
		Effective: w.effective,
		Skipped:   w.steps - w.effective,
		Reason:    reason,
	}
}
