package sim

import (
	"fmt"

	"shapesol/internal/grid"
	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// NodeMemento is the serializable per-node record of a Memento.
type NodeMemento[S any] struct {
	State    S
	Comp     int
	Pos      grid.Pos
	Rot      grid.Rot
	BondedTo [grid.NumDirs]int32
}

// ComponentMemento is one rigid component: its slot, its node list and
// its open-port set, both in engine order. The cell map is derived (each
// node's position) and rebuilt on restore; the open-port *order* is not
// derivable — wrand.Set samples by index, so the order is part of the
// scheduler's sampling state and must round-trip verbatim.
type ComponentMemento struct {
	Slot  int
	Nodes []int
	Open  []PortRef
}

// Memento is the complete serializable state of a sim World: nodes,
// components, the free-slot recycling stack, the bonded and latent pair
// sets (order-sensitive, like the open-port sets) and the run counters
// and RNG. The live components' slots and FreeSlots partition
// [0, NumSlots). The per-slot open-port counts, their ticket table and
// aggregates are derived from the component data and rebuilt on restore,
// as is the skip path's bookkeeping, whose draws read only the
// configuration. Snapshots of older builds carried an IneffectiveRun
// counter; gob skips it on decode.
type Memento[S any] struct {
	N         int
	Dim       int
	Steps     int64
	Effective int64
	Merges    int64
	Splits    int64
	RNG       wrand.RNGState
	Nodes     []NodeMemento[S]
	Comps     []ComponentMemento
	NumSlots  int
	FreeSlots []int
	Bonded    []PortPair
	Latent    []PortPair

	// Sched is the scheduler/fault layer's state; nil for profile-less
	// runs (older snapshots decode with it nil and restore identically).
	// Under churn Nodes covers every id ever allocated, so its length can
	// exceed N; Sched's flags say which ids are still present.
	Sched *sched.AgentsState
}

// Memento captures the World's current state. Everything is deep-copied,
// so the capture stays valid while the run continues. Capture only
// between steps — e.g. from the Progress callback, which fires with the
// world quiescent.
func (w *World[S]) Memento() *Memento[S] {
	m := &Memento[S]{
		N:         w.n,
		Dim:       w.opts.Dim,
		Steps:     w.steps,
		Effective: w.effective,
		Merges:    w.merges,
		Splits:    w.splits,
		RNG:       w.rng.State(),
		Nodes:     make([]NodeMemento[S], len(w.nodes)),
		NumSlots:  len(w.comps),
		FreeSlots: append([]int(nil), w.freeSlots...),
		Bonded:    append([]PortPair(nil), w.bonded.Items()...),
		Latent:    append([]PortPair(nil), w.latent.Items()...),
	}
	if w.agents != nil {
		m.Sched = w.agents.State()
	}
	for id := range w.nodes {
		nd := &w.nodes[id]
		m.Nodes[id] = NodeMemento[S]{
			State: nd.state, Comp: nd.comp, Pos: nd.pos, Rot: nd.rot, BondedTo: nd.bondedTo,
		}
	}
	for _, c := range w.comps {
		if c == nil {
			continue
		}
		m.Comps = append(m.Comps, ComponentMemento{
			Slot:  c.slot,
			Nodes: append([]int(nil), c.nodes...),
			Open:  append([]PortRef(nil), c.open.Items()...),
		})
	}
	return m
}

// RestoreMemento rewinds the World to a captured state. The World must
// have been built with the same population size, dimension and protocol;
// its own options (budget, callbacks, stop conditions) stay in effect.
// Components, bonds and the order-sensitive sampling sets are installed
// verbatim; the cell maps, halted tallies and the open-port counts are
// rebuilt. After a successful restore the World continues the captured
// trajectory exactly.
//
// Snapshots cross trust boundaries (the daemon resumes uploaded bytes),
// so a memento no saved world could produce is rejected with an error,
// never a panic: nothing is sized by NumSlots before the slot partition
// bounds it, and the restored world must pass Validate. After an error
// the World is unusable.
func (w *World[S]) RestoreMemento(m *Memento[S]) error {
	if m.N != w.n {
		return fmt.Errorf("sim: snapshot population %d, world has %d", m.N, w.n)
	}
	if m.Dim != w.opts.Dim {
		return fmt.Errorf("sim: snapshot dimension %d, world has %d", m.Dim, w.opts.Dim)
	}
	if (m.Sched != nil) != (w.agents != nil) {
		return fmt.Errorf("sim: snapshot scheduler state presence %v, world profile says %v",
			m.Sched != nil, w.agents != nil)
	}
	if m.Steps < 0 || m.Effective < 0 || m.Effective > m.Steps || m.Merges < 0 || m.Splits < 0 {
		return fmt.Errorf("sim: snapshot counters are inconsistent")
	}
	nNodes := w.n
	if m.Sched != nil {
		nNodes = len(m.Sched.Flags)
	}
	if len(m.Nodes) != nNodes {
		return fmt.Errorf("sim: snapshot carries %d nodes, want %d", len(m.Nodes), nNodes)
	}
	for id := range m.Nodes {
		nm := &m.Nodes[id]
		if nm.Rot >= grid.NumRots || (m.Dim == 2 && !nm.Rot.Planar()) {
			return fmt.Errorf("sim: node %d has invalid rotation %d", id, nm.Rot)
		}
		for p, other := range nm.BondedTo {
			if other < -1 || int(other) >= nNodes {
				return fmt.Errorf("sim: node %d port %d bonded to out-of-range node %d", id, p, other)
			}
		}
	}
	if err := checkSlots(m.NumSlots, m.Comps, m.FreeSlots); err != nil {
		return err
	}
	if err := validatePairs("bonded", m.Bonded, nNodes); err != nil {
		return err
	}
	if err := validatePairs("latent", m.Latent, nNodes); err != nil {
		return err
	}
	if err := w.rng.SetState(m.RNG); err != nil {
		return err
	}
	if w.agents != nil {
		if err := w.agents.RestoreState(m.Sched, m.Steps); err != nil {
			return err
		}
	}

	w.nodes = make([]nodeData[S], nNodes)
	w.haltedCount = 0
	for id := range m.Nodes {
		nm := &m.Nodes[id]
		nd := &w.nodes[id]
		nd.state = nm.State
		nd.comp = nm.Comp
		nd.pos = nm.Pos
		nd.rot = nm.Rot
		nd.bondedTo = nm.BondedTo
		nd.halted = w.presentNode(id) && w.proto.Halted(nm.State)
		if nd.halted {
			w.haltedCount++
		}
	}

	w.comps = make([]*component, m.NumSlots)
	w.tickets.reset(m.NumSlots)
	for _, cm := range m.Comps {
		c := &component{
			slot:  cm.Slot,
			nodes: append([]int(nil), cm.Nodes...),
			cells: make(map[grid.Pos]int, len(cm.Nodes)),
			open:  wrand.NewSet[PortRef](),
		}
		for _, id := range c.nodes {
			if id < 0 || id >= nNodes {
				return fmt.Errorf("sim: snapshot component %d references node %d out of range", cm.Slot, id)
			}
			if w.nodes[id].comp != cm.Slot {
				return fmt.Errorf("sim: node %d claims component %d but is listed in %d",
					id, w.nodes[id].comp, cm.Slot)
			}
			if prev, dup := c.cells[w.nodes[id].pos]; dup {
				return fmt.Errorf("sim: nodes %d and %d share cell %v in component %d",
					prev, id, w.nodes[id].pos, cm.Slot)
			}
			c.cells[w.nodes[id].pos] = id
		}
		seenPorts := make(map[PortRef]bool, len(cm.Open))
		for _, ref := range cm.Open {
			if ref.Node < 0 || ref.Node >= nNodes || ref.Port >= grid.NumDirs {
				return fmt.Errorf("sim: component %d open port %v out of range", cm.Slot, ref)
			}
			if seenPorts[ref] {
				return fmt.Errorf("sim: component %d lists open port %v twice", cm.Slot, ref)
			}
			seenPorts[ref] = true
		}
		c.open.Replace(cm.Open)
		w.comps[cm.Slot] = c
		w.syncWeight(c)
	}
	w.freeSlots = append(w.freeSlots[:0], m.FreeSlots...)
	w.bonded.Replace(m.Bonded)
	w.latent.Replace(m.Latent)

	w.steps = m.Steps
	w.effective = m.Effective
	w.merges = m.Merges
	w.splits = m.Splits
	// The skip bookkeeping is a function of the configuration; RunContext
	// rebuilds it on its first draw.
	w.book = nil
	if err := w.Validate(); err != nil {
		return fmt.Errorf("sim: snapshot world is inconsistent: %w", err)
	}
	return nil
}

// checkSlots rejects component slots and a free-slot stack that do not
// partition [0, numSlots) exactly, as they do in every saved world: a
// slot out of range, claimed twice, or neither live nor free. It runs
// before anything is sized by numSlots, which it bounds by the decoded
// data.
func checkSlots(numSlots int, comps []ComponentMemento, free []int) error {
	if numSlots != len(comps)+len(free) {
		return fmt.Errorf("sim: snapshot has %d slots but %d components and %d free slots",
			numSlots, len(comps), len(free))
	}
	used := make([]bool, numSlots)
	claim := func(kind string, slot int) error {
		if slot < 0 || slot >= numSlots {
			return fmt.Errorf("sim: snapshot %s slot %d out of range [0,%d)", kind, slot, numSlots)
		}
		if used[slot] {
			return fmt.Errorf("sim: snapshot reuses %s slot %d", kind, slot)
		}
		used[slot] = true
		return nil
	}
	for _, cm := range comps {
		if err := claim("component", cm.Slot); err != nil {
			return err
		}
	}
	for _, slot := range free {
		if err := claim("free", slot); err != nil {
			return err
		}
	}
	return nil
}

// validatePairs rejects port pairs a corrupt (or crafted) snapshot could
// use to break the engine: out-of-range nodes or ports would index past
// the per-node arrays, and duplicates would panic the sampling set's
// Replace. Restore must fail cleanly instead — snapshots cross trust
// boundaries (the daemon accepts them over HTTP).
func validatePairs(kind string, pairs []PortPair, n int) error {
	seen := make(map[PortPair]bool, len(pairs))
	for _, pp := range pairs {
		for _, ref := range [2]PortRef{pp.A, pp.B} {
			if ref.Node < 0 || ref.Node >= n || ref.Port >= grid.NumDirs {
				return fmt.Errorf("sim: %s pair %v out of range", kind, pp)
			}
		}
		if seen[pp] {
			return fmt.Errorf("sim: %s pair %v listed twice", kind, pp)
		}
		seen[pp] = true
	}
	return nil
}
