package sim

import (
	"fmt"
	"slices"

	"shapesol/internal/grid"
)

// maxSampleAttempts bounds the rejection loop before falling back to
// exhaustive enumeration. Rejections only happen when a sampled open-port
// pair of two multi-node components collides geometrically, so in practice
// a handful of attempts suffice.
const maxSampleAttempts = 10_000

// InteractionKind classifies how the scheduler selected a pair.
type InteractionKind int

// Interaction kinds: an already active bond, a latent facing pair inside a
// component, or a pair of open ports of two distinct components.
const (
	KindBond InteractionKind = iota + 1
	KindLatent
	KindInter
)

// StepInfo describes one scheduler step.
type StepInfo struct {
	Kind      InteractionKind
	A, B      PortRef
	Effective bool
	Merged    bool
	Split     bool
}

// Step performs one scheduler selection and interaction. ErrNoInteraction
// is returned when the permissible set is empty.
func (w *World[S]) Step() (StepInfo, error) {
	for attempt := 0; attempt < maxSampleAttempts; attempt++ {
		w1 := int64(w.bonded.Len())
		w2 := int64(w.latent.Len())
		w3 := w.tickets.pairs()
		if w.agents != nil {
			w3 = w.agents.ScaleInter(w3)
		}
		total := w1 + w2 + w3
		if total == 0 {
			return StepInfo{}, ErrNoInteraction
		}
		r := w.rng.Int63n(total)
		switch {
		case r < w1:
			pp, _ := w.bonded.Sample(w.rng)
			return w.fireIntra(pp, true), nil
		case r < w1+w2:
			pp, _ := w.latent.Sample(w.rng)
			return w.fireIntra(pp, false), nil
		default:
			pi, pj, ok := w.sampleOpenPair(&w.tickets)
			if !ok {
				continue
			}
			rots := w.feasibleRotations(pi, pj)
			if len(rots) == 0 {
				continue // reject; restart the whole draw to stay uniform
			}
			return w.fireInter(pi, pj, rots[w.rng.Intn(len(rots))]), nil
		}
	}
	return w.stepExhaustive()
}

// sampleOpenPair draws an unordered pair of open ports of two distinct
// components weighted by t, each such pair with equal probability. Drawing
// the two components independently with probability proportional to their
// weights and rejecting i == j realizes exactly that distribution; the
// rejection loop stays INSIDE the inter category so that the category
// weights remain exact. Step draws over every component; the skip path
// over the multi-node ones.
func (w *World[S]) sampleOpenPair(t *tickets) (PortRef, PortRef, bool) {
	for attempt := 0; attempt < maxSampleAttempts; attempt++ {
		si, ok := t.sample(w.rng)
		if !ok {
			return PortRef{}, PortRef{}, false
		}
		sj, _ := t.sample(w.rng)
		if si == sj {
			continue
		}
		pi, _ := w.comps[si].open.Sample(w.rng)
		pj, _ := w.comps[sj].open.Sample(w.rng)
		return pi, pj, true
	}
	return PortRef{}, PortRef{}, false
}

// feasibleRotations returns the rotations of pj's component frame that
// align pj's port against pi's at unit distance without any cell
// collision, in rotsMapping order; placement turns one into the isometry
// that maps pj's component frame into pi's. In 2D there is at most one;
// in 3D up to four. Both ports must be open, as every port the scheduler
// samples is. This is the one enumeration of feasible placements: Step,
// stepExhaustive and the tests all read it.
//
// When either component is a lone node every aligning rotation is
// feasible, and the list is rotsMapping's own. Placed into pi's
// component, pj's lone node lands on the cell pi's open port faces, which
// is free; and seen from pj's component, pi's lone node lands on the cell
// pj's open port faces, which is free too. So no isometry is built: the
// step draws from the rotation list, and fireInter builds the isometry
// for merge only when the pair bonds.
//
// The returned slice is either shared with rotsMapping or a per-world
// scratch buffer valid until the next call; callers must not modify it,
// and must copy it to retain it.
func (w *World[S]) feasibleRotations(pi, pj PortRef) []grid.Rot {
	ni, nj := &w.nodes[pi.Node], &w.nodes[pj.Node]
	aligning := w.rotsMapping[nj.rot.Dir(pj.Port)][ni.rot.Dir(pi.Port).Opposite()]
	ca, cb := w.comps[ni.comp], w.comps[nj.comp]
	if len(ca.nodes) == 1 || len(cb.nodes) == 1 {
		return aligning
	}
	out := w.rotBuf[:0]
	for _, g := range aligning {
		if w.placementFree(ca, cb, w.placement(pi, pj, g)) {
			out = append(out, g)
		}
	}
	w.rotBuf = out[:0]
	return out
}

// placement returns the isometry that rotates pj's component frame by g
// and translates it so that pj's node lands on the cell pi's port faces.
func (w *World[S]) placement(pi, pj PortRef, g grid.Rot) grid.Isometry {
	target := w.facingCell(pi.Node, pi.Port)
	return grid.Isometry{R: g, T: target.Sub(g.Apply(w.nodes[pj.Node].pos))}
}

// placementFree reports whether mapping component b through iso collides
// with component a. It walks the smaller side's node slice and looks each
// mapped position up in the other side's cells (ranging over a cells map
// instead would seed a runtime random draw per call).
func (w *World[S]) placementFree(a, b *component, iso grid.Isometry) bool {
	if len(b.nodes) <= len(a.nodes) {
		for _, id := range b.nodes {
			if _, hit := a.cells[iso.Apply(w.nodes[id].pos)]; hit {
				return false
			}
		}
		return true
	}
	inv := iso.Inverse()
	for _, id := range a.nodes {
		if _, hit := b.cells[inv.Apply(w.nodes[id].pos)]; hit {
			return false
		}
	}
	return true
}

// fireIntra executes an interaction on an intra-component pair (an active
// bond or a latent facing pair).
func (w *World[S]) fireIntra(pp PortPair, bondedNow bool) StepInfo {
	w.steps++
	kind := KindLatent
	if bondedNow {
		kind = KindBond
	}
	info := StepInfo{Kind: kind, A: pp.A, B: pp.B}
	if w.agents != nil && !w.agents.AllowPair(pp.A.Node, pp.B.Node) {
		// Scheduler veto (a crashed, frozen or starved participant): the
		// selection costs a step but nothing happens.
		return info
	}
	a, b := pp.A, pp.B
	if w.rng.Intn(2) == 1 { // unordered pair: randomize presentation order
		a, b = b, a
	}
	na, nb, bond, effective := w.interact(a, b, bondedNow, true)
	if !effective {
		return info
	}
	info.Effective = true
	w.effective++
	w.applyState(a.Node, na)
	w.applyState(b.Node, nb)
	switch {
	case bondedNow && !bond:
		info.Split = w.deactivate(pp)
	case !bondedNow && bond:
		w.activate(pp)
	}
	return info
}

// fireInter executes an interaction between two components whose ports
// were aligned by rotating pj's component frame by g (see placement).
func (w *World[S]) fireInter(pi, pj PortRef, g grid.Rot) StepInfo {
	w.steps++
	info := StepInfo{Kind: KindInter, A: pi, B: pj}
	if w.agents != nil && !w.agents.AllowPair(pi.Node, pj.Node) {
		return info
	}
	a, b := pi, pj
	if w.rng.Intn(2) == 1 {
		a, b = b, a
	}
	na, nb, bond, effective := w.interact(a, b, false, false)
	if !effective {
		return info
	}
	info.Effective = true
	w.effective++
	w.applyState(a.Node, na)
	w.applyState(b.Node, nb)
	if bond {
		w.merge(pi, pj, w.placement(pi, pj, g))
		info.Merged = true
	}
	return info
}

// interact dispatches the pair (a, b), in that presentation order, to the
// protocol, reading both node states in place.
func (w *World[S]) interact(a, b PortRef, bonded, sameComp bool) (S, S, bool, bool) {
	return w.interactStates(w.nodes[a.Node].state, w.nodes[b.Node].state, a.Port, b.Port, bonded, sameComp)
}

// interactStates asks the protocol about states a and b on ports pa and
// pb, passing component information to ComponentAware implementations.
// The assertion is resolved once at world construction, not per
// interaction.
func (w *World[S]) interactStates(a, b S, pa, pb grid.Dir, bonded, sameComp bool) (S, S, bool, bool) {
	if w.isCompAware {
		return w.compAware.InteractSame(a, b, pa, pb, bonded, sameComp)
	}
	return w.proto.Interact(a, b, pa, pb, bonded)
}

func (w *World[S]) applyState(id int, s S) {
	nd := &w.nodes[id]
	if nd.halted {
		w.haltedCount--
	}
	nd.state = s
	nd.halted = w.proto.Halted(s)
	if nd.halted {
		w.haltedCount++
	}
	if w.book != nil {
		w.restate(id)
	}
}

// activate turns a latent facing pair into an active bond.
func (w *World[S]) activate(pp PortPair) {
	w.latent.Remove(pp)
	w.bonded.Add(pp)
	w.nodes[pp.A.Node].bondedTo[pp.A.Port] = int32(pp.B.Node)
	w.nodes[pp.B.Node].bondedTo[pp.B.Port] = int32(pp.A.Node)
	if w.book != nil {
		w.book.setIntra(pp, w.intraEffective(pp, true))
	}
}

// deactivate removes an active bond; if the component falls apart the two
// sides become independent components that drift away from each other. It
// reports whether a split occurred.
func (w *World[S]) deactivate(pp PortPair) bool {
	w.bonded.Remove(pp)
	w.nodes[pp.A.Node].bondedTo[pp.A.Port] = -1
	w.nodes[pp.B.Node].bondedTo[pp.B.Port] = -1

	c := w.comps[w.nodes[pp.A.Node].comp]
	side := w.bondSide(pp.A.Node, len(c.nodes))
	if side[pp.B.Node] {
		// Still connected: the cells remain adjacent, so the pair becomes
		// latent.
		w.latent.Add(pp)
		if w.book != nil {
			w.book.setIntra(pp, w.intraEffective(pp, false))
		}
		return false
	}
	if w.book != nil {
		w.book.setIntra(pp, false)
	}
	w.split(c, side)
	return true
}

// bondSide collects the nodes reachable from start through active bonds.
func (w *World[S]) bondSide(start, sizeHint int) map[int]bool {
	seen := make(map[int]bool, sizeHint)
	seen[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, other := range w.nodes[id].bondedTo {
			if other >= 0 && !seen[int(other)] {
				seen[int(other)] = true
				queue = append(queue, int(other))
			}
		}
	}
	return seen
}

// split moves the given side of component c into a fresh component. All
// latent pairs crossing the cut disappear: the two bodies are no longer
// held together, so their relative placement is forgotten.
//
// Iteration is over node slices, never maps, so that the mutation order of
// the sampling sets — and therefore the whole run — is reproducible from
// the seed.
func (w *World[S]) split(c *component, side map[int]bool) {
	w.splits++
	if w.book != nil {
		w.book.countComp(c, -1)
	}
	// Move the smaller set for efficiency.
	moveSide := len(side) <= len(c.nodes)/2

	nc := w.newComponent()
	remaining := c.nodes[:0]
	for _, id := range c.nodes {
		if side[id] == moveSide {
			nc.nodes = append(nc.nodes, id)
			w.nodes[id].comp = nc.slot
			delete(c.cells, w.nodes[id].pos)
			nc.cells[w.nodes[id].pos] = id
		} else {
			remaining = append(remaining, id)
		}
	}
	c.nodes = remaining

	// Drop latent pairs that crossed the cut: the moved nodes' cells were
	// already removed from c.cells, so any facing cell still in c.cells
	// belongs to the other side.
	for _, id := range nc.nodes {
		for _, p := range w.ports {
			if w.nodes[id].bondedTo[p] >= 0 {
				continue
			}
			f := w.facingCell(id, p)
			other, ok := c.cells[f]
			if !ok {
				continue
			}
			op := w.portOfWorldDir(other, w.worldDir(id, p).Opposite())
			pp := newPortPair(PortRef{Node: id, Port: p}, PortRef{Node: other, Port: op})
			w.latent.Remove(pp)
			if w.book != nil {
				w.book.setIntra(pp, false)
			}
		}
	}

	// Openness changed along the cut; splits are rare, so rebuild both.
	w.rebuildOpen(c)
	w.rebuildOpen(nc)
	if w.book != nil {
		w.book.countComp(c, 1)
		w.book.countComp(nc, 1)
	}
}

// rebuildOpen recomputes the open-port set of a component from scratch.
func (w *World[S]) rebuildOpen(c *component) {
	c.open.Clear()
	for _, id := range c.nodes {
		w.recomputeOpen(c, id)
	}
	w.syncWeight(c)
}

// merge joins pj's component into pi's component using the placement iso
// and activates the bond between the two sampled ports. Every new facing
// pair created across the seam becomes latent.
func (w *World[S]) merge(pi, pj PortRef, iso grid.Isometry) {
	w.merges++
	dst := w.comps[w.nodes[pi.Node].comp]
	src := w.comps[w.nodes[pj.Node].comp]
	if len(src.cells) > len(dst.cells) {
		// Transform the smaller body: merge dst into src through the
		// inverse placement, swapping roles.
		dst, src = src, dst
		pi, pj = pj, pi
		iso = iso.Inverse()
	}

	incoming := make(map[int]bool, len(src.nodes))
	for _, id := range src.nodes {
		incoming[id] = true
	}
	// The skip book's class counts follow the open ports: the incoming
	// body's leave with it and come back as the merged body's, and the
	// seam closes some of dst's. A lone dst is recounted whole instead.
	b := w.book
	dstLone := len(dst.nodes) == 1
	if b != nil {
		b.countComp(src, -1)
		if dstLone {
			b.countComp(dst, -1)
		}
	}
	countSeam := b != nil && !dstLone

	// Re-pose the incoming nodes in dst's frame.
	for _, id := range src.nodes {
		nd := &w.nodes[id]
		nd.pos = iso.Apply(nd.pos)
		nd.rot = iso.R.Compose(nd.rot)
		nd.comp = dst.slot
		if prev, clash := dst.cells[nd.pos]; clash {
			panic(fmt.Sprintf("sim: merge collision at %v between nodes %d and %d", nd.pos, prev, id))
		}
		dst.cells[nd.pos] = id
		dst.nodes = append(dst.nodes, id)
	}

	// Seam pass: openness of incoming nodes, plus new facing pairs between
	// the two sides.
	bondPair := newPortPair(pi, pj)
	for _, id := range src.nodes {
		for _, p := range w.ports {
			ref := PortRef{Node: id, Port: p}
			f := w.facingCell(id, p)
			other, occupied := dst.cells[f]
			if !occupied {
				dst.open.Add(ref)
				if countSeam {
					b.classAdd(b.class(ref), false, 1)
				}
				continue
			}
			dst.open.Remove(ref)
			if incoming[other] {
				continue // internal pair of the incoming body: already tracked
			}
			// New seam pair with a node of the original dst side.
			op := w.portOfWorldDir(other, w.worldDir(id, p).Opposite())
			oref := PortRef{Node: other, Port: op}
			dst.open.Remove(oref)
			if countSeam {
				b.classAdd(b.class(oref), false, -1)
			}
			pp := newPortPair(ref, oref)
			if pp == bondPair {
				continue // activated below
			}
			w.latent.Add(pp)
			if b != nil {
				b.setIntra(pp, w.intraEffective(pp, false))
			}
		}
	}

	w.bonded.Add(bondPair)
	w.nodes[pi.Node].bondedTo[pi.Port] = int32(pj.Node)
	w.nodes[pj.Node].bondedTo[pj.Port] = int32(pi.Node)

	w.syncWeight(dst)
	w.dropComponent(src)
	if b != nil {
		b.setIntra(bondPair, w.intraEffective(bondPair, true))
		if dstLone {
			b.countComp(dst, 1)
		}
	}
}

// stepExhaustive enumerates the full permissible set once and samples from
// it uniformly. It is the fallback when rejection sampling exceeds its
// attempt budget, and the ground truth used by engine invariant tests.
func (w *World[S]) stepExhaustive() (StepInfo, error) {
	type inter struct {
		pi, pj PortRef
		rots   []grid.Rot
	}
	var inters []inter
	w.eachInterPair(func(pi, pj PortRef, _ bool) {
		if rots := w.feasibleRotations(pi, pj); len(rots) > 0 {
			// feasibleRotations may return scratch storage; copy before
			// the next enumeration overwrites it.
			inters = append(inters, inter{pi, pj, slices.Clone(rots)})
		}
	})
	interW := int64(len(inters))
	if w.agents != nil {
		interW = w.agents.ScaleInter(interW)
	}
	total := int64(w.bonded.Len()+w.latent.Len()) + interW
	if total == 0 {
		return StepInfo{}, ErrNoInteraction
	}
	r := w.rng.Int63n(total)
	switch {
	case r < int64(w.bonded.Len()):
		return w.fireIntra(w.bonded.Items()[r], true), nil
	case r < int64(w.bonded.Len()+w.latent.Len()):
		return w.fireIntra(w.latent.Items()[r-int64(w.bonded.Len())], false), nil
	default:
		idx := r - int64(w.bonded.Len()+w.latent.Len())
		if interW != int64(len(inters)) {
			// The category weight was rescaled; the within-category pick
			// must still be uniform over the actual pairs.
			idx = int64(w.rng.Intn(len(inters)))
		}
		in := inters[idx]
		return w.fireInter(in.pi, in.pj, in.rots[w.rng.Intn(len(in.rots))]), nil
	}
}

// eachInterPair visits every unordered pair of open ports of two distinct
// components, slots in ascending order and ports in open-set order,
// reporting whether either component is a lone node. It is the one
// enumeration of the inter-component attempts: stepExhaustive, the skip
// path's fallback and Validate read it.
func (w *World[S]) eachInterPair(visit func(pi, pj PortRef, lone bool)) {
	slots := w.ComponentSlots()
	for x, sa := range slots {
		ca := w.comps[sa]
		for _, sb := range slots[x+1:] {
			cb := w.comps[sb]
			lone := len(ca.nodes) == 1 || len(cb.nodes) == 1
			for _, pi := range ca.open.Items() {
				for _, pj := range cb.open.Items() {
					visit(pi, pj, lone)
				}
			}
		}
	}
}
