package sim

import (
	"errors"
	"fmt"

	"shapesol/internal/grid"
)

// NodeSpec places one node of a pre-built component.
type NodeSpec[S any] struct {
	State S
	Pos   grid.Pos
}

// ComponentSpec describes a pre-built connected component. When Bonds is
// nil every pair of adjacent cells is bonded; otherwise Bonds lists index
// pairs into Cells.
type ComponentSpec[S any] struct {
	Cells []NodeSpec[S]
	Bonds [][2]int
}

// Config is an explicit initial configuration: some pre-assembled
// components plus free nodes. Several of the paper's protocols (replication,
// TM simulation on a given square) start from such configurations.
type Config[S any] struct {
	Components []ComponentSpec[S]
	Free       []S // states of the free nodes
}

// NewFromConfig builds a world from an explicit initial configuration.
// Node ids are assigned component by component in specification order,
// then to the free nodes.
func NewFromConfig[S comparable](cfg Config[S], proto Protocol[S], opts Options) (*World[S], error) {
	n := len(cfg.Free)
	for _, cs := range cfg.Components {
		n += len(cs.Cells)
	}
	w := newEmpty(n, proto, opts)
	id := 0
	for ci, cs := range cfg.Components {
		if err := w.addComponentSpec(cs, id); err != nil {
			return nil, fmt.Errorf("sim: component %d: %w", ci, err)
		}
		id += len(cs.Cells)
	}
	for _, st := range cfg.Free {
		w.addFreeNode(id, st)
		id++
	}
	return w, nil
}

func (w *World[S]) addComponentSpec(cs ComponentSpec[S], firstID int) error {
	if len(cs.Cells) == 0 {
		return errors.New("empty component")
	}
	c := w.newComponent()
	for i, cell := range cs.Cells {
		id := firstID + i
		nd := &w.nodes[id]
		nd.state = cell.State
		nd.pos = cell.Pos
		nd.rot = grid.Identity
		nd.comp = c.slot
		nd.halted = w.proto.Halted(cell.State)
		if nd.halted {
			w.haltedCount++
		}
		for j := range nd.bondedTo {
			nd.bondedTo[j] = -1
		}
		if prev, dup := c.cells[cell.Pos]; dup {
			return fmt.Errorf("cells %d and %d share position %v", prev-firstID, i, cell.Pos)
		}
		c.cells[cell.Pos] = id
		c.nodes = append(c.nodes, id)
	}

	bonds := cs.Bonds
	if bonds == nil {
		for i, a := range cs.Cells {
			for j := i + 1; j < len(cs.Cells); j++ {
				if a.Pos.Adjacent(cs.Cells[j].Pos) {
					bonds = append(bonds, [2]int{i, j})
				}
			}
		}
	}
	for _, b := range bonds {
		if err := w.bondByIndex(c, firstID, b[0], b[1], len(cs.Cells)); err != nil {
			return err
		}
	}

	// Latent pairs: adjacent facing pairs not bonded.
	for _, id := range c.nodes {
		for _, p := range w.ports {
			if w.nodes[id].bondedTo[p] >= 0 {
				continue
			}
			f := w.facingCell(id, p)
			other, ok := c.cells[f]
			if !ok || other < id {
				continue // unoccupied, or already added from the other side
			}
			op := w.portOfWorldDir(other, w.worldDir(id, p).Opposite())
			w.latent.Add(newPortPair(PortRef{Node: id, Port: p}, PortRef{Node: other, Port: op}))
		}
	}

	w.rebuildOpen(c)

	// The paper's shapes are bond-connected.
	if got := len(w.bondSide(c.nodes[0], len(c.nodes))); got != len(c.nodes) {
		return fmt.Errorf("component not bond-connected (%d of %d reachable)", got, len(c.nodes))
	}
	return nil
}

func (w *World[S]) bondByIndex(c *component, firstID, i, j, n int) error {
	if i < 0 || i >= n || j < 0 || j >= n {
		return fmt.Errorf("bond (%d,%d) out of range", i, j)
	}
	a, b := firstID+i, firstID+j
	pa := w.nodes[a].pos
	pb := w.nodes[b].pos
	if !pa.Adjacent(pb) {
		return fmt.Errorf("bond (%d,%d): cells %v, %v not adjacent", i, j, pa, pb)
	}
	d, _ := grid.DirOf(pb.Sub(pa))
	portA := w.portOfWorldDir(a, d)
	portB := w.portOfWorldDir(b, d.Opposite())
	w.bonded.Add(newPortPair(PortRef{Node: a, Port: portA}, PortRef{Node: b, Port: portB}))
	w.nodes[a].bondedTo[portA] = int32(b)
	w.nodes[b].bondedTo[portB] = int32(a)
	return nil
}

// FindNode returns the smallest node id whose state satisfies pred, or -1.
func (w *World[S]) FindNode(pred func(S) bool) int {
	for id := range w.nodes {
		if pred(w.nodes[id].state) {
			return id
		}
	}
	return -1
}

// CountNodes returns how many node states satisfy pred.
func (w *World[S]) CountNodes(pred func(S) bool) int {
	n := 0
	for id := range w.nodes {
		if pred(w.nodes[id].state) {
			n++
		}
	}
	return n
}
