package sim

import (
	"fmt"

	"shapesol/internal/grid"
)

// Validate cross-checks every incremental data structure against a from-
// scratch recomputation. It is used by the engine's own tests after long
// randomized runs, and ends every snapshot restore; a non-nil error means
// the incremental scheduler state diverged from the ground truth. When
// RunContext has built the skip bookkeeping, Validate recounts it through
// eachInterPair, asking the protocol afresh (see validateBook). It
// relies only on what RestoreMemento range-checks before calling it (node
// ids, bond targets, rotations and ports in range), so it reports a
// corrupt world instead of panicking on it.
func (w *World[S]) Validate() error {
	// Node <-> component consistency: the listed nodes are exactly the
	// present ones, and a departed node belongs to no component.
	liveNodes := 0
	for slot, c := range w.comps {
		if c == nil {
			continue
		}
		if c.slot != slot {
			return fmt.Errorf("component slot mismatch: %d vs %d", c.slot, slot)
		}
		if len(c.nodes) == 0 {
			return fmt.Errorf("slot %d: empty component", slot)
		}
		if c.cells.n != len(c.nodes) {
			return fmt.Errorf("slot %d: %d cells vs %d nodes", slot, c.cells.n, len(c.nodes))
		}
		liveNodes += len(c.nodes)
		for _, id := range c.nodes {
			if !w.presentNode(id) {
				return fmt.Errorf("departed node %d listed in slot %d", id, slot)
			}
			if w.nodes[id].comp != slot {
				return fmt.Errorf("node %d comp=%d but listed in slot %d", id, w.nodes[id].comp, slot)
			}
			if got, ok := c.cells.get(w.nodes[id].pos); !ok || got != id {
				return fmt.Errorf("node %d not at its cell %v", id, w.nodes[id].pos)
			}
		}
	}
	if liveNodes != w.Present() {
		return fmt.Errorf("%d nodes tracked in components, want %d present", liveNodes, w.Present())
	}
	for id := range w.nodes {
		if !w.presentNode(id) && w.nodes[id].comp != -1 {
			return fmt.Errorf("departed node %d claims component %d", id, w.nodes[id].comp)
		}
	}

	// Bond symmetry and geometric consistency.
	bondCount := 0
	for id := range w.nodes {
		nd := &w.nodes[id]
		for p := grid.Dir(0); p < grid.NumDirs; p++ {
			other := nd.bondedTo[p]
			if other < 0 {
				continue
			}
			if w.opts.Dim == 2 && !p.In2D() {
				return fmt.Errorf("node %d bonded through 3D port %v in a 2D world", id, p)
			}
			bondCount++
			od := &w.nodes[other]
			if od.comp != nd.comp {
				return fmt.Errorf("bond %d-%d crosses components", id, other)
			}
			if w.facingCell(id, p) != od.pos {
				return fmt.Errorf("bond %d(%v)-%d not geometrically facing", id, p, other)
			}
			op := w.portOfWorldDir(int(other), w.worldDir(id, p).Opposite())
			if od.bondedTo[op] != int32(id) {
				return fmt.Errorf("bond %d-%d asymmetric", id, other)
			}
			pp := newPortPair(PortRef{Node: id, Port: p}, PortRef{Node: int(other), Port: op})
			if !w.bonded.Has(pp) {
				return fmt.Errorf("bond %d-%d missing from bonded set", id, other)
			}
		}
	}
	if bondCount != 2*w.bonded.Len() {
		return fmt.Errorf("bondedTo lists %d half-bonds, set has %d pairs", bondCount, w.bonded.Len())
	}

	// Bond-connectivity of every component.
	for _, c := range w.comps {
		if c == nil {
			continue
		}
		if got := w.bondSide(c.nodes[0]); got != len(c.nodes) {
			return fmt.Errorf("slot %d not bond-connected: %d of %d", c.slot, got, len(c.nodes))
		}
	}

	// Latent pairs: exactly the adjacent facing unbonded intra pairs.
	wantLatent := make(map[PortPair]bool)
	for _, c := range w.comps {
		if c == nil {
			continue
		}
		for _, id := range c.nodes {
			for _, p := range w.ports {
				if w.nodes[id].bondedTo[p] >= 0 {
					continue
				}
				other, ok := c.cells.get(w.facingCell(id, p))
				if !ok {
					continue
				}
				op := w.portOfWorldDir(other, w.worldDir(id, p).Opposite())
				wantLatent[newPortPair(PortRef{Node: id, Port: p}, PortRef{Node: other, Port: op})] = true
			}
		}
	}
	if len(wantLatent) != w.latent.Len() {
		return fmt.Errorf("latent set has %d pairs, want %d", w.latent.Len(), len(wantLatent))
	}
	for _, pp := range w.latent.Items() {
		if !wantLatent[pp] {
			return fmt.Errorf("stale latent pair %+v", pp)
		}
	}

	// Open ports and sampler weights.
	if len(w.tickets.weight) != len(w.comps) {
		return fmt.Errorf("%d weighted slots, want %d", len(w.tickets.weight), len(w.comps))
	}
	for _, c := range w.comps {
		if c == nil {
			continue
		}
		want := make(map[PortRef]bool)
		for _, id := range c.nodes {
			for _, p := range w.ports {
				if !c.cells.has(w.facingCell(id, p)) {
					want[PortRef{Node: id, Port: p}] = true
				}
			}
		}
		if len(want) != c.open.Len() {
			return fmt.Errorf("slot %d open set has %d ports, want %d", c.slot, c.open.Len(), len(want))
		}
		for _, ref := range c.open.Items() {
			if !want[ref] {
				return fmt.Errorf("slot %d stale open port %+v", c.slot, ref)
			}
		}
		if got := w.tickets.weight[c.slot]; int(got) != len(want) {
			return fmt.Errorf("slot %d weight %d, want %d", c.slot, got, len(want))
		}
	}
	for _, slot := range w.freeSlots {
		if slot < 0 || slot >= len(w.comps) || w.comps[slot] != nil {
			return fmt.Errorf("free slot %d is out of range or live", slot)
		}
		if w.tickets.weight[slot] != 0 {
			return fmt.Errorf("free slot %d has non-zero weight", slot)
		}
	}
	if err := w.tickets.validate(); err != nil {
		return err
	}
	if w.book != nil {
		return w.validateBook()
	}
	return nil
}
