package sim

import (
	"context"
	"errors"
	"fmt"

	"shapesol/internal/grid"
	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// ErrNoInteraction is returned by Step when no permissible interaction
// exists (only possible in degenerate configurations such as n == 1).
var ErrNoInteraction = errors.New("sim: no permissible interaction")

// PortRef identifies one side of an interaction: a node and one of its
// local ports.
type PortRef struct {
	Node int
	Port grid.Dir
}

// PortPair is an unordered pair of node-ports, canonicalized by node id.
// The two nodes are always distinct.
type PortPair struct {
	A, B PortRef
}

func newPortPair(a, b PortRef) PortPair {
	if b.Node < a.Node {
		a, b = b, a
	}
	return PortPair{A: a, B: b}
}

// nodeData is the engine's per-node record. pos and rot are expressed in
// the node's component frame; absolute coordinates are meaningless in a
// well-mixed solution.
type nodeData[S any] struct {
	state    S
	comp     int // component slot
	pos      grid.Pos
	rot      grid.Rot
	halted   bool
	bondedTo [grid.NumDirs]int32 // node bonded via local port p, or -1
}

// component is a rigid connected body (or a lone free node).
type component struct {
	slot  int
	nodes []int
	cells cellTable // occupied cell -> node id
	open  wrand.Set[PortRef]
}

// Options configures a World.
type Options struct {
	// Dim selects the 2D (4 ports) or 3D (6 ports) model. Default 2.
	Dim int
	// Seed seeds the single RNG driving the scheduler.
	Seed int64
	// MaxSteps bounds Run. Default 50 million.
	MaxSteps int64
	// StopWhenAnyHalted stops Run once any node enters a halting state
	// (terminating protocols with a halting leader).
	StopWhenAnyHalted bool
	// CheckEvery is the evaluation period of the SetHaltWhen predicate, the
	// RunContext cancellation check and the Progress callback. Defaults to
	// 256; a negative period counts as its magnitude.
	CheckEvery int64
	// Progress, when non-nil, is invoked by Run every CheckEvery steps with
	// the current step count. It must not mutate the world.
	Progress func(steps int64)
}

func (o Options) withDefaults() Options {
	if o.Dim == 0 {
		o.Dim = 2
	}
	sched.RunDefaults(&o.MaxSteps, &o.CheckEvery, 50_000_000)
	if o.CheckEvery < 0 {
		o.CheckEvery = -o.CheckEvery
	}
	return o
}

// StopReason explains why Run returned.
type StopReason int

// Stop reasons. ReasonMaxSteps means the budget ran out before any
// terminating condition fired.
const (
	ReasonMaxSteps StopReason = iota + 1
	ReasonHalted
	ReasonNoInteraction
	ReasonPredicate
	ReasonCanceled
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case ReasonMaxSteps:
		return "max-steps"
	case ReasonHalted:
		return "halted"
	case ReasonNoInteraction:
		return "no-interaction"
	case ReasonPredicate:
		return "predicate"
	case ReasonCanceled:
		return "canceled"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Result summarizes a Run.
type Result struct {
	Steps     int64 // total scheduler selections
	Effective int64 // effective interactions
	Merges    int64
	Splits    int64
	Reason    StopReason
}

// World is a complete simulation instance, generic over the protocol state
// type S. It is not safe for concurrent use; run independent worlds in
// parallel instead (see internal/runner).
type World[S comparable] struct {
	n     int
	opts  Options
	ports []grid.Dir
	rots  []grid.Rot
	proto Protocol[S]
	// compAware caches the one proto type assertion of the hot loop.
	compAware   ComponentAware[S]
	isCompAware bool
	rng         *wrand.RNG
	haltWhen    func(*World[S]) bool
	// doneAfter, set by Settle, is the stop predicate RunContext checks
	// after every effective interaction.
	doneAfter func(*World[S]) bool

	nodes     []nodeData[S]
	comps     []*component
	freeSlots []int
	tickets   tickets // open-port count per component slot, and its sampler

	bonded *wrand.Set[PortPair]
	latent *wrand.Set[PortPair]

	// rotsMapping[from][to] precomputes grid.RotsMapping over w.rots so
	// that placement enumeration allocates nothing per step.
	rotsMapping [grid.NumDirs][grid.NumDirs][]grid.Rot
	// rotBuf is the reusable scratch slice of feasibleRotations.
	rotBuf []grid.Rot
	// mark[id] == epoch marks node id in the current walk of bondSide, or
	// as part of merge's incoming body; queue is bondSide's scratch.
	mark  []uint32
	epoch uint32
	queue []int

	steps, effective, merges, splits int64
	skipped                          int64 // steps jumped over, never executed
	haltedCount                      int

	// book is the skip path's bookkeeping (see skip.go); nil until
	// RunContext's first draw without a profile, and after a restore.
	book *skipBook[S]
	// stepwise makes RunContext draw every step through Step even without
	// a profile: the per-step reference of the skip's law tests, set only
	// through export_test.go.
	stepwise bool

	// metrics, when non-nil, receives fleet-wide counter deltas on the
	// CheckEvery cadence; the pub* fields are the already-published
	// baselines (snapshotted by SetMetrics, so restored step counts are
	// never re-counted).
	metrics                                      *obs.EngineMetrics
	pubSteps, pubEffective, pubFault, pubSkipped int64

	// agents is the scheduler/fault layer (see internal/sched); nil without
	// a profile, in which case every code path below skips the layer and
	// RunContext takes the skip path.
	agents *sched.Agents
}

// New builds a world of n free nodes, each in its protocol-defined initial
// state. n must be below 2^21.
func New[S comparable](n int, proto Protocol[S], opts Options) *World[S] {
	w := newEmpty(n, proto, opts)
	for id := 0; id < n; id++ {
		w.addFreeNode(id, proto.InitialState(id, n))
	}
	return w
}

func newEmpty[S comparable](n int, proto Protocol[S], opts Options) *World[S] {
	opts = opts.withDefaults()
	if opts.Dim != 2 && opts.Dim != 3 {
		panic(fmt.Sprintf("sim: invalid dimension %d", opts.Dim))
	}
	if n < 0 || n >= maxNodes {
		panic(fmt.Sprintf("sim: population %d out of range [0,%d)", n, maxNodes))
	}
	w := &World[S]{
		n:      n,
		opts:   opts,
		proto:  proto,
		rng:    wrand.NewRNG(opts.Seed),
		nodes:  make([]nodeData[S], n),
		comps:  make([]*component, 0, n),
		bonded: wrand.NewSet[PortPair](),
		latent: wrand.NewSet[PortPair](),
	}
	w.compAware, w.isCompAware = proto.(ComponentAware[S])
	if opts.Dim == 2 {
		w.ports = grid.Ports2D[:]
		w.rots = grid.PlanarRots()
	} else {
		w.ports = grid.Ports3D[:]
		w.rots = grid.AllRots()
	}
	for _, from := range w.ports {
		for _, to := range w.ports {
			w.rotsMapping[from][to] = grid.RotsMapping(from, to, w.rots)
		}
	}
	return w
}

// SetHaltWhen installs a stop predicate that Run evaluates at entry and
// then every Options.CheckEvery steps, stopping with ReasonPredicate when
// it returns true. It replaces any previously installed predicate.
func (w *World[S]) SetHaltWhen(pred func(*World[S]) bool) {
	w.haltWhen = pred
}

// ApplyProfile installs a scheduler/fault profile (see internal/sched) on
// a world that has not stepped yet. A zero profile is a no-op: the world
// keeps its draw without a profile, byte for byte. The geometric engine
// supports the uniform, clustered and adversarial-delay policies plus the
// full fault model; the weighted policy has no port-level meaning here
// and is rejected by normalization. Arrivals stop once the world would
// reach 2^21 node ids, the engine's limit (see cellKey).
func (w *World[S]) ApplyProfile(p sched.Profile) error {
	np, err := p.Normalize(sched.EngineSim, w.n)
	if err != nil {
		return err
	}
	if np.IsZero() {
		w.agents = nil
		return nil
	}
	if w.agents != nil {
		return errors.New("sim: profile already applied")
	}
	if w.steps > 0 {
		return errors.New("sim: profile must be applied before stepping")
	}
	w.agents = sched.NewAgents(np, w.n, w.opts.Seed)
	w.book = nil
	return nil
}

// Agents exposes the scheduler/fault layer; nil without a profile.
func (w *World[S]) Agents() *sched.Agents { return w.agents }

// Present returns the number of non-departed nodes (N without a profile).
func (w *World[S]) Present() int {
	if w.agents == nil {
		return w.n
	}
	return w.agents.Present()
}

// presentNode reports whether node id has not departed.
func (w *World[S]) presentNode(id int) bool {
	return w.agents == nil || w.agents.IsPresent(id)
}

// SetMetrics attaches a fleet-wide metrics sink. Call it after any
// snapshot restore: the current totals become the published baseline,
// so a resumed run only publishes steps it simulated itself.
func (w *World[S]) SetMetrics(m *obs.EngineMetrics) {
	w.metrics = m
	w.pubSteps, w.pubEffective, w.pubFault = w.steps, w.effective, w.agents.FaultEvents()
	w.pubSkipped = w.skipped
	if m != nil {
		m.Runs.Inc()
	}
}

// publishMetrics flushes counter deltas accumulated since the last
// publish (deltas: concurrent runs share the per-engine counters).
func (w *World[S]) publishMetrics() {
	if w.metrics == nil {
		return
	}
	fault := w.agents.FaultEvents()
	w.metrics.Steps.Add(w.steps - w.pubSteps)
	w.metrics.Effective.Add(w.effective - w.pubEffective)
	w.metrics.Skipped.Add(w.skipped - w.pubSkipped)
	w.metrics.FaultEvents.Add(fault - w.pubFault)
	w.pubSteps, w.pubEffective, w.pubFault = w.steps, w.effective, fault
	w.pubSkipped = w.skipped
}

// applyFaults drains every fault event due at the current step. It runs
// on the CheckEvery cadence (and when the scheduler runs dry), with the
// world quiescent. The scheduler layer applies crashes, recoveries,
// freezes and thaws itself; arrivals and departures change the geometry.
func (w *World[S]) applyFaults() {
	if w.agents == nil {
		return
	}
	for {
		ev, ok := w.agents.NextChurn(w.steps)
		if !ok {
			return
		}
		switch ev {
		case sched.EvArrive:
			if len(w.nodes)+1 >= maxNodes {
				continue // dropped at the node limit
			}
			id := w.agents.ArriveOne()
			w.nodes = append(w.nodes, nodeData[S]{})
			w.addFreeNode(id, w.proto.InitialState(id, w.n))
		case sched.EvDepart:
			// Departures take only free singleton nodes: a node bonded
			// into a rigid body cannot drift out of the solution. When
			// every present node is part of a structure the event is
			// dropped.
			if id, ok := w.agents.DepartOne(w.lone); ok {
				nd := &w.nodes[id]
				w.dropComponent(w.comps[nd.comp])
				nd.comp = -1
				if nd.halted {
					nd.halted = false
					w.haltedCount--
				}
			}
		}
	}
}

// addFreeNode installs node id as a singleton component at the origin of its
// own frame.
func (w *World[S]) addFreeNode(id int, state S) {
	nd := &w.nodes[id]
	nd.state = state
	nd.pos = grid.Pos{}
	nd.rot = grid.Identity
	nd.halted = w.proto.Halted(state)
	if nd.halted {
		w.haltedCount++
	}
	for i := range nd.bondedTo {
		nd.bondedTo[i] = -1
	}
	c := w.newComponent()
	c.nodes = append(c.nodes, id)
	c.cells.add(grid.Pos{}, id)
	nd.comp = c.slot
	// Every port is open, in port order: the order Add would give, in one
	// allocation.
	var open [grid.NumDirs]PortRef
	for i, p := range w.ports {
		open[i] = PortRef{Node: id, Port: p}
	}
	c.open.Replace(open[:len(w.ports)])
	w.syncWeight(c)
}

func (w *World[S]) newComponent() *component {
	var slot int
	if len(w.freeSlots) > 0 {
		slot = w.freeSlots[len(w.freeSlots)-1]
		w.freeSlots = w.freeSlots[:len(w.freeSlots)-1]
	} else {
		slot = len(w.comps)
		w.comps = append(w.comps, nil)
	}
	c := &component{slot: slot}
	w.comps[slot] = c
	return c
}

func (w *World[S]) dropComponent(c *component) {
	w.tickets.set(c.slot, 0)
	if w.book != nil {
		w.book.multiT.set(c.slot, 0)
	}
	w.comps[c.slot] = nil
	w.freeSlots = append(w.freeSlots, c.slot)
}

func (w *World[S]) syncWeight(c *component) {
	w.tickets.set(c.slot, int64(c.open.Len()))
	if w.book != nil {
		var multi int64
		if len(c.nodes) > 1 {
			multi = int64(c.open.Len())
		}
		w.book.multiT.set(c.slot, multi)
	}
}

// worldDir returns the component-frame direction of node id's local port p.
func (w *World[S]) worldDir(id int, p grid.Dir) grid.Dir {
	return w.nodes[id].rot.Dir(p)
}

// portOfWorldDir returns the local port of node id pointing in
// component-frame direction d.
func (w *World[S]) portOfWorldDir(id int, d grid.Dir) grid.Dir {
	return w.nodes[id].rot.Inverse().Dir(d)
}

// facingCell returns the cell faced by node id's port p (component frame).
func (w *World[S]) facingCell(id int, p grid.Dir) grid.Pos {
	return w.nodes[id].pos.Step(w.worldDir(id, p))
}

// recomputeOpen rebuilds the open/closed status of every port of node id
// within component c.
func (w *World[S]) recomputeOpen(c *component, id int) {
	for _, p := range w.ports {
		ref := PortRef{Node: id, Port: p}
		if c.cells.has(w.facingCell(id, p)) {
			c.open.Remove(ref)
		} else {
			c.open.Add(ref)
		}
	}
}

// N returns the population size.
func (w *World[S]) N() int { return w.n }

// Dim returns 2 or 3.
func (w *World[S]) Dim() int { return w.opts.Dim }

// Steps returns the number of scheduler selections so far.
func (w *World[S]) Steps() int64 { return w.steps }

// Effective returns the number of effective interactions so far.
func (w *World[S]) Effective() int64 { return w.effective }

// State returns the current state of node id.
func (w *World[S]) State(id int) S { return w.nodes[id].state }

// SetNodeState overrides a node's state (used by configuration builders and
// tests, never by protocols).
func (w *World[S]) SetNodeState(id int, s S) {
	w.applyState(id, s)
}

// HaltedCount returns the number of nodes in halting states.
func (w *World[S]) HaltedCount() int { return w.haltedCount }

// Pos returns node id's cell in its component frame.
func (w *World[S]) Pos(id int) grid.Pos { return w.nodes[id].pos }

// Rot returns node id's orientation in its component frame.
func (w *World[S]) Rot(id int) grid.Rot { return w.nodes[id].rot }

// ComponentOf returns the component slot of node id.
func (w *World[S]) ComponentOf(id int) int { return w.nodes[id].comp }

// ComponentSlots returns the live component slots in ascending order.
func (w *World[S]) ComponentSlots() []int {
	var out []int
	for i, c := range w.comps {
		if c != nil {
			out = append(out, i)
		}
	}
	return out
}

// NumComponents returns the number of connected components (free nodes are
// singleton components).
func (w *World[S]) NumComponents() int {
	n := 0
	for _, c := range w.comps {
		if c != nil {
			n++
		}
	}
	return n
}

// ComponentNodes returns the node ids of component slot.
func (w *World[S]) ComponentNodes(slot int) []int {
	c := w.comps[slot]
	if c == nil {
		return nil
	}
	out := make([]int, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// ComponentSize returns the number of nodes in component slot.
func (w *World[S]) ComponentSize(slot int) int {
	c := w.comps[slot]
	if c == nil {
		return 0
	}
	return len(c.nodes)
}

// ComponentShape returns the shape (cells plus active bonds) of component
// slot, in the component's own frame.
func (w *World[S]) ComponentShape(slot int) *grid.Shape {
	c := w.comps[slot]
	s := grid.NewShape()
	if c == nil {
		return s
	}
	for _, id := range c.nodes {
		s.Add(w.nodes[id].pos)
	}
	for _, id := range c.nodes {
		nd := &w.nodes[id]
		for p, other := range nd.bondedTo {
			if other >= 0 {
				q := w.facingCell(id, grid.Dir(p))
				if err := s.Bond(nd.pos, q); err != nil {
					panic(fmt.Sprintf("sim: inconsistent bond: %v", err))
				}
			}
		}
	}
	return s
}

// LargestComponent returns the slot and node count of the largest
// component.
func (w *World[S]) LargestComponent() (slot, size int) {
	slot = -1
	for i, c := range w.comps {
		if c != nil && len(c.nodes) > size {
			slot, size = i, len(c.nodes)
		}
	}
	return slot, size
}

// BondedNeighbor returns the node bonded to id via local port p, or -1.
func (w *World[S]) BondedNeighbor(id int, p grid.Dir) int {
	return int(w.nodes[id].bondedTo[p])
}

// CountStates tallies present nodes' states by the supplied key function
// (useful in tests and tools). Departed nodes are not counted.
func (w *World[S]) CountStates(key func(S) string) map[string]int {
	out := make(map[string]int)
	for i := range w.nodes {
		if !w.presentNode(i) {
			continue
		}
		out[key(w.nodes[i].state)]++
	}
	return out
}

// Run executes scheduler steps until a stop condition fires. Stop
// conditions already true at entry (for example a protocol whose initial
// configuration is terminal) return immediately. It is RunContext under a
// background context.
func (w *World[S]) Run() Result {
	return w.RunContext(context.Background())
}

// RunContext is Run under a cancelable context: cancellation (or deadline
// expiry) is observed on the Options.CheckEvery cadence — the same window
// as the SetHaltWhen predicate — and stops the run with ReasonCanceled.
//
// A world with a scheduler/fault profile draws every step through Step,
// since its policies act on every pick, null ones included. A world
// without one jumps over its null interactions (see skip.go): the law of
// the run is the same, and progress, metrics, the stop predicates and
// cancellation fire on exactly the steps where a per-step loop would fire
// them. Neither draw allocates per step.
func (w *World[S]) RunContext(ctx context.Context) Result {
	switch {
	case ctx.Err() != nil:
		return w.result(ReasonCanceled)
	case w.opts.StopWhenAnyHalted && w.haltedCount > 0:
		return w.result(ReasonHalted)
	case w.haltWhen != nil && w.haltWhen(w):
		return w.result(ReasonPredicate)
	}
	reason := ReasonMaxSteps
	next := w.nextCheck()
	for w.steps < w.opts.MaxSteps {
		var info StepInfo
		var err error
		fired := true
		if w.agents != nil || w.stepwise {
			info, err = w.Step()
		} else {
			info, fired, err = w.skipStep(min(next, w.opts.MaxSteps))
		}
		if err != nil {
			// With a fault clock running, a future event (a recovery, a
			// thaw, an arrival) can repopulate the permissible set: jump to
			// the event, apply it, and try again.
			if w.agents != nil {
				if np := w.agents.NextPending(); np < w.opts.MaxSteps {
					if np > w.steps {
						w.steps = np
						next = w.nextCheck()
					}
					w.applyFaults()
					continue
				}
			}
			// A satisfied predicate outranks the no-interaction stop: the
			// predicate may have become true between CheckEvery windows and
			// must not be masked by the scheduler running dry.
			if w.haltWhen != nil && w.haltWhen(w) {
				reason = ReasonPredicate
			} else {
				reason = ReasonNoInteraction
			}
			break
		}
		// Only a fired interaction can change a state.
		if fired && w.opts.StopWhenAnyHalted && w.haltedCount > 0 {
			reason = ReasonHalted
			break
		}
		if fired && info.Effective && w.doneAfter != nil && w.doneAfter(w) {
			reason = ReasonPredicate
			break
		}
		if w.steps == next {
			next += w.opts.CheckEvery
			w.applyFaults()
			if ctx.Err() != nil {
				reason = ReasonCanceled
				break
			}
			w.publishMetrics()
			if w.opts.Progress != nil {
				w.opts.Progress(w.steps)
			}
			if w.haltWhen != nil && w.haltWhen(w) {
				reason = ReasonPredicate
				break
			}
		}
	}
	w.publishMetrics()
	return w.result(reason)
}

// Settle continues a run after its protocol stopped it, for at most budget
// more steps, until done reports true: the post-halt phase in which a
// construction sheds its waste. done is checked at entry and after every
// effective interaction, the only steps that can change its answer; a nil
// done runs the whole budget. The stop conditions of Options and
// SetHaltWhen do not apply and Progress does not fire, since the settling
// is read-out rather than part of the checkpointed run; metrics count its
// steps, and a profile's fault clock keeps running. Cancellation is
// observed on the CheckEvery cadence.
func (w *World[S]) Settle(ctx context.Context, budget int64, done func(*World[S]) bool) Result {
	if done != nil && done(w) {
		return w.result(ReasonPredicate)
	}
	opts, haltWhen := w.opts, w.haltWhen
	w.opts.MaxSteps = w.steps + budget
	w.opts.StopWhenAnyHalted = false
	w.opts.Progress = nil
	w.haltWhen, w.doneAfter = nil, done
	res := w.RunContext(ctx)
	w.opts, w.haltWhen, w.doneAfter = opts, haltWhen, nil
	return res
}

// result summarizes the run so far.
func (w *World[S]) result(reason StopReason) Result {
	return Result{Steps: w.steps, Effective: w.effective, Merges: w.merges, Splits: w.splits, Reason: reason}
}

// nextCheck returns the first multiple of the CheckEvery period after
// the current step. Between fault-clock jumps the step count never passes
// a multiple without landing on it (the skip path stops its runs there),
// so RunContext fires its check work exactly when the step count is a
// multiple of the period — the same steps a division per step would pick,
// after a jump and after a restore too — without dividing on every step.
func (w *World[S]) nextCheck() int64 {
	return (w.steps/w.opts.CheckEvery + 1) * w.opts.CheckEvery
}
