package sim

import (
	"fmt"
	"math"
	"slices"

	"shapesol/internal/grid"
)

// This file is RunContext's draw for a world without a scheduler/fault
// profile: it jumps over the permissible interactions that provably change
// nothing, in one geometric draw, instead of executing them one by one.
//
// The permissible set splits in two. S holds the pairs that are
// ineffective in both presentation orders and need no geometry: bonded
// and latent pairs, and inter-component pairs with a lone node on at least
// one side, whose placement is always feasible (see feasibleRotations). C
// holds everything else: the effective intra pairs, the effective
// lone-side pairs, and every open-port pair of two multi-node bodies,
// whose feasibility only the placement check can tell.
//
// Step is the first non-rejected attempt of a sequence of independent
// uniform attempts over S and C, a colliding placement being rejected
// without a step. So the number of S steps before the next feasible C step
// is the number of S attempts before the first feasible C attempt: a
// Geometric(|C|/(|S|+|C|)) run, redrawn after each rejected C attempt, then
// one uniform draw from C fired exactly as Step fires it. Runs stop at
// RunContext's CheckEvery multiples and at MaxSteps, where what remains is
// geometric again by memorylessness, so no skip state outlives a cadence
// point and a snapshot needs nothing new.

// maxBookRowBytes bounds the effectiveness cache; past it the book is
// rebuilt from the configuration at the next draw.
const maxBookRowBytes = 1 << 22

// skipBook is the bookkeeping behind the skip: |S| and every part of C,
// kept current by the hooks in step.go while it exists. RunContext builds
// it from the configuration on its first draw without a profile, and a
// restore or a profile drops it. Every draw it serves reads the
// configuration in an order that is a function of the configuration alone
// (ascending node id, component slot order, and the open-port sets' own
// order, which a memento restores verbatim), never in the order states
// were first interned. So a book rebuilt from a restored configuration
// continues the captured trajectory exactly.
type skipBook[S comparable] struct {
	ids      map[S]int32 // interned states
	states   []S         // interned id -> state
	sid      []int32     // node id -> interned state id
	stateCap int         // past this many interned states the book is rebuilt

	// classes holds, per port class (interned state id * grid.NumDirs +
	// port), the open ports of lone nodes and of multi-node bodies. sets
	// lists the classes with lone ports and those with any open port, in
	// no particular order: only sums range over them.
	classes []class
	sets    [2][]int32

	// rows[k][k2] caches whether classes k and k2 interact effectively, in
	// either order, as a pair of two components: 0 unknown, 1 no, 2 yes.
	// Only classes with lone ports are asked, so only they get rows.
	rows     map[int32][]uint8
	rowBytes int

	// partners[i] counts, for the lone class sets[lones][i], the open ports
	// of multi-node bodies and of other lone nodes it interacts with
	// effectively; cLM and cLL count the effective lone-multi and
	// lone-lone pairs. All three are valid when !dirty.
	partners []partners
	cLM, cLL int64
	dirty    bool
	compact  bool // the caches outgrew their bounds: rebuild at the next draw

	// effIntra holds the bonded and latent pairs effective in some order,
	// sorted by their first port.
	effIntra []PortPair
	// multiT weighs the multi-node components only: the draw of an
	// open-port pair of two bodies.
	multiT tickets

	// logC and logT key the cached logQ = log1p(-logC/logT).
	logC, logT int64
	logQ       float64
}

// The class sets of skipBook.sets.
const (
	lones   = iota // classes with open ports on lone nodes
	actives        // classes with any open port
)

// class is one port class's open ports, and its places in the class sets.
type class struct {
	lone, multi int32
	pos         [2]int32 // index+1 in each class set, 0 when absent
}

// partners are a lone class's effective partner counts.
type partners struct{ multi, lone int64 }

// join adds class k to a class set.
func (b *skipBook[S]) join(set int, k int32) {
	b.sets[set] = append(b.sets[set], k)
	b.classes[k].pos[set] = int32(len(b.sets[set]))
}

// leave removes class k from a class set, moving the last member into its
// place.
func (b *skipBook[S]) leave(set int, k int32) {
	members := b.sets[set]
	i := b.classes[k].pos[set] - 1
	last := members[len(members)-1]
	members[i] = last
	b.classes[last].pos[set] = i + 1
	b.sets[set] = members[:len(members)-1]
	b.classes[k].pos[set] = 0
}

// buildBook derives the skip bookkeeping from the configuration.
func (w *World[S]) buildBook() {
	b := &skipBook[S]{ids: make(map[S]int32), sid: make([]int32, len(w.nodes)),
		rows: make(map[int32][]uint8), dirty: true}
	for id := range w.nodes {
		b.sid[id] = b.intern(w.nodes[id].state)
	}
	b.stateCap = 2*len(b.states) + 256
	b.multiT.reset(len(w.comps))
	for _, c := range w.comps {
		if c == nil {
			continue
		}
		b.countComp(c, 1)
		if len(c.nodes) > 1 {
			b.multiT.set(c.slot, int64(c.open.Len()))
		}
	}
	for _, pp := range w.bonded.Items() {
		if w.intraEffective(pp, true) {
			b.effIntra = append(b.effIntra, pp)
		}
	}
	for _, pp := range w.latent.Items() {
		if w.intraEffective(pp, false) {
			b.effIntra = append(b.effIntra, pp)
		}
	}
	slices.SortFunc(b.effIntra, cmpIntra)
	w.book = b
}

// cmpIntra orders intra pairs by their first port, which no other intra
// pair shares: a port faces one cell.
func cmpIntra(a, b PortPair) int {
	if a.A.Node != b.A.Node {
		return a.A.Node - b.A.Node
	}
	return int(a.A.Port) - int(b.A.Port)
}

// intern returns s's id, growing the per-class tables for a new state.
func (b *skipBook[S]) intern(s S) int32 {
	if id, ok := b.ids[s]; ok {
		return id
	}
	id := int32(len(b.states))
	b.ids[s] = id
	b.states = append(b.states, s)
	if b.stateCap > 0 && len(b.states) > b.stateCap {
		b.compact = true
	}
	var fresh [grid.NumDirs]class
	b.classes = append(b.classes, fresh[:]...)
	return id
}

// class returns the port class of an open port.
func (b *skipBook[S]) class(ref PortRef) int32 {
	return b.sid[ref.Node]*grid.NumDirs + int32(ref.Port)
}

// classAdd moves the open-port count of class k by d, on lone nodes or on
// multi-node bodies.
func (b *skipBook[S]) classAdd(k int32, lone bool, d int32) {
	c := &b.classes[k]
	before := c.lone + c.multi
	if lone {
		was := c.lone
		c.lone += d
		switch {
		case was == 0:
			b.join(lones, k)
		case c.lone == 0:
			b.leave(lones, k)
		}
	} else {
		c.multi += d
	}
	switch after := c.lone + c.multi; {
	case before == 0:
		b.join(actives, k)
	case after == 0:
		b.leave(actives, k)
	}
	b.dirty = true
}

// countComp adds d times component c's open ports to their classes.
func (b *skipBook[S]) countComp(c *component, d int32) {
	lone := len(c.nodes) == 1
	for _, ref := range c.open.Items() {
		b.classAdd(b.class(ref), lone, d)
	}
}

// setIntra puts the intra pair pp into the effective set or takes it out.
func (b *skipBook[S]) setIntra(pp PortPair, effective bool) {
	i, found := slices.BinarySearchFunc(b.effIntra, pp, cmpIntra)
	switch {
	case effective && !found:
		b.effIntra = slices.Insert(b.effIntra, i, pp)
	case !effective && found:
		b.effIntra = slices.Delete(b.effIntra, i, i+1)
	}
}

// row returns lone class k's effectiveness row, covering every class.
func (b *skipBook[S]) row(k int32) []uint8 {
	row := b.rows[k]
	if grow := len(b.classes) - len(row); grow > 0 {
		row = slices.Grow(row, grow)[:len(b.classes)]
		clear(row[len(row)-grow:])
		b.rows[k] = row
		if b.rowBytes += grow; b.rowBytes > maxBookRowBytes {
			b.compact = true
		}
	}
	return row
}

// eff reports whether class k, whose row is row, and class k2 interact
// effectively as a pair of two components, in either order, asking the
// protocol once per class pair.
func (b *skipBook[S]) eff(w *World[S], row []uint8, k, k2 int32) bool {
	v := row[k2]
	if v == 0 {
		v = 1
		sa, pa := b.states[k/grid.NumDirs], grid.Dir(k%grid.NumDirs)
		sb, pb := b.states[k2/grid.NumDirs], grid.Dir(k2%grid.NumDirs)
		if w.pairEffective(sa, sb, pa, pb, false, false) {
			v = 2
		}
		row[k2] = v
	}
	return v == 2
}

// recount derives the partner counts, cLM and cLL from the class
// counts, in O(lone classes x classes).
func (b *skipBook[S]) recount(w *World[S]) {
	var lm, ll2 int64
	b.partners = b.partners[:0]
	for _, k := range b.sets[lones] {
		row := b.row(k)
		var p partners
		for _, k2 := range b.sets[actives] {
			if b.eff(w, row, k, k2) {
				p.multi += int64(b.classes[k2].multi)
				p.lone += int64(b.classes[k2].lone)
			}
		}
		// A lone node's own ports, each in its own class, are not its
		// partners.
		base := k / grid.NumDirs * grid.NumDirs
		for _, q := range w.ports {
			if b.eff(w, row, k, base+int32(q)) {
				p.lone--
			}
		}
		b.partners = append(b.partners, p)
		lm += int64(b.classes[k].lone) * p.multi
		ll2 += int64(b.classes[k].lone) * p.lone
	}
	b.cLM, b.cLL = lm, ll2/2
	b.dirty = false
}

// partnersOf returns lone class k's partner counts.
func (b *skipBook[S]) partnersOf(k int32) partners {
	return b.partners[b.classes[k].pos[lones]-1]
}

// restate updates the book after node id's state changed: the classes of
// its open ports, and the effectiveness of its intra pairs.
func (w *World[S]) restate(id int) {
	b := w.book
	old, now := b.sid[id], b.intern(w.nodes[id].state)
	if old == now {
		return
	}
	b.sid[id] = now
	c := w.comps[w.nodes[id].comp]
	lone := len(c.nodes) == 1
	for _, p := range w.ports {
		ref := PortRef{Node: id, Port: p}
		if lone || c.open.Has(ref) {
			b.classAdd(old*grid.NumDirs+int32(p), lone, -1)
			b.classAdd(now*grid.NumDirs+int32(p), lone, 1)
			continue
		}
		// A closed port faces a cell of its own body: a bond or a latent
		// pair.
		pp, bonded := w.intraPairAt(c, id, p)
		b.setIntra(pp, w.intraEffective(pp, bonded))
	}
}

// intraPairAt returns the intra pair through node id's closed port p and
// whether it is bonded.
func (w *World[S]) intraPairAt(c *component, id int, p grid.Dir) (PortPair, bool) {
	other := int(w.nodes[id].bondedTo[p])
	bonded := other >= 0
	if !bonded {
		other, _ = c.cells.get(w.facingCell(id, p))
	}
	op := w.portOfWorldDir(other, w.worldDir(id, p).Opposite())
	return newPortPair(PortRef{Node: id, Port: p}, PortRef{Node: other, Port: op}), bonded
}

// intraEffective reports whether the intra pair pp is effective in
// either presentation order.
func (w *World[S]) intraEffective(pp PortPair, bonded bool) bool {
	return w.pairEffective(w.nodes[pp.A.Node].state, w.nodes[pp.B.Node].state,
		pp.A.Port, pp.B.Port, bonded, true)
}

// pairEffective reports whether states a and b on ports pa and pb
// interact effectively in either presentation order.
func (w *World[S]) pairEffective(a, b S, pa, pb grid.Dir, bonded, sameComp bool) bool {
	if _, _, _, e := w.interactStates(a, b, pa, pb, bonded, sameComp); e {
		return true
	}
	_, _, _, e := w.interactStates(b, a, pb, pa, bonded, sameComp)
	return e
}

// lone reports whether node id is a component of its own.
func (w *World[S]) lone(id int) bool {
	return len(w.comps[w.nodes[id].comp].nodes) == 1
}

// skipStep is RunContext's draw without a profile. It advances the step
// count past a geometric run of S steps and fires one pair of C, reporting
// fired; when the run reaches limit first, it stops there without firing.
func (w *World[S]) skipStep(limit int64) (info StepInfo, fired bool, err error) {
	if w.book == nil || w.book.compact {
		w.buildBook()
	}
	b := w.book
	for attempt := 0; attempt < maxSampleAttempts; attempt++ {
		if b.dirty {
			b.recount(w)
		}
		total := w.attempts()
		cI, cM := int64(len(b.effIntra)), b.multiT.pairs()
		c := cI + b.cLM + b.cLL + cM
		switch {
		case total == 0:
			return StepInfo{}, false, ErrNoInteraction
		case c == total:
			// Nothing to skip: the draw is Step's own, so a run in which
			// every permissible pair is effective keeps Step's stream.
			info, err := w.Step()
			return info, err == nil, err
		case c == 0:
			w.jump(limit)
			return StepInfo{}, false, nil
		}
		if !w.skipRun(c, total, limit) {
			return StepInfo{}, false, nil
		}
		r := w.rng.Int63n(c)
		switch {
		case r < cI:
			pp := b.effIntra[r]
			return w.fireIntra(pp, w.nodes[pp.A.Node].bondedTo[pp.A.Port] >= 0), true, nil
		case r < cI+b.cLM:
			return w.fireLone(w.drawLoneMulti(r - cI)), true, nil
		case r < cI+b.cLM+b.cLL:
			return w.fireLone(w.drawLoneLone()), true, nil
		}
		pi, pj, ok := w.sampleOpenPair(&b.multiT)
		if !ok {
			continue
		}
		if rots := w.feasibleRotations(pi, pj); len(rots) > 0 {
			return w.fireInter(pi, pj, rots[w.rng.Intn(len(rots))]), true, nil
		}
		// A colliding placement is discarded without a step; the next
		// attempt draws a fresh run.
	}
	return w.skipExhaustive(limit)
}

// attempts is the size of Step's attempt space: bonded and latent pairs
// plus every open-port pair of two components.
func (w *World[S]) attempts() int64 {
	return int64(w.bonded.Len()+w.latent.Len()) + w.tickets.pairs()
}

// skipRun advances past a geometric run of S steps before the next of c
// C attempts among total, and reports false when the run reached limit.
func (w *World[S]) skipRun(c, total, limit int64) bool {
	b := w.book
	if c != b.logC || total != b.logT {
		b.logC, b.logT, b.logQ = c, total, math.Log1p(-float64(c)/float64(total))
	}
	rem := limit - w.steps
	run := w.rng.GeometricRun(b.logQ, rem)
	w.steps += run
	w.skipped += run
	return run < rem
}

// jump advances to limit over steps that are all ineffective.
func (w *World[S]) jump(limit int64) {
	w.skipped += limit - w.steps
	w.steps = limit
}

// fireLone fires the lone-side pair (x, y), x on a lone node, through a
// uniform pick of the aligning rotations, all of them feasible.
func (w *World[S]) fireLone(x, y PortRef) StepInfo {
	rots := w.feasibleRotations(x, y)
	return w.fireInter(x, y, rots[w.rng.Intn(len(rots))])
}

// drawLoneMulti returns the r-th effective pair of a lone node's port and
// an open port of a multi-node body, lone ports by ascending node id and
// port, body ports by slot and open-set order.
func (w *World[S]) drawLoneMulti(r int64) (PortRef, PortRef) {
	b := w.book
	for id := range w.nodes {
		if !w.lone(id) {
			continue
		}
		base := b.sid[id] * grid.NumDirs
		for _, p := range w.ports {
			k := base + int32(p)
			if weight := b.partnersOf(k).multi; r >= weight {
				r -= weight
				continue
			}
			row := b.row(k)
			for _, c := range w.comps {
				if c == nil || len(c.nodes) == 1 {
					continue
				}
				for _, y := range c.open.Items() {
					if b.eff(w, row, k, b.class(y)) {
						if r == 0 {
							return PortRef{Node: id, Port: p}, y
						}
						r--
					}
				}
			}
			panic("sim: lone-multi partner count out of date")
		}
	}
	panic("sim: lone-multi pair count out of date")
}

// drawLoneLone returns a uniform effective pair of ports of two lone
// nodes: one of the 2*cLL ordered pairs, by ascending node id and port.
func (w *World[S]) drawLoneLone() (PortRef, PortRef) {
	b := w.book
	r := w.rng.Int63n(2 * b.cLL)
	for id := range w.nodes {
		if !w.lone(id) {
			continue
		}
		base := b.sid[id] * grid.NumDirs
		for _, p := range w.ports {
			k := base + int32(p)
			if weight := b.partnersOf(k).lone; r >= weight {
				r -= weight
				continue
			}
			row := b.row(k)
			for id2 := range w.nodes {
				if id2 == id || !w.lone(id2) {
					continue
				}
				base2 := b.sid[id2] * grid.NumDirs
				for _, q := range w.ports {
					if b.eff(w, row, k, base2+int32(q)) {
						if r == 0 {
							return PortRef{Node: id, Port: p}, PortRef{Node: id2, Port: q}
						}
						r--
					}
				}
			}
			panic("sim: lone-lone partner count out of date")
		}
	}
	panic("sim: lone-lone pair count out of date")
}

// interEffective reports whether two open ports of distinct components,
// one of them on a lone node, interact effectively in either order,
// through the class cache.
func (w *World[S]) interEffective(pi, pj PortRef) bool {
	b := w.book
	if !w.lone(pi.Node) {
		pi, pj = pj, pi
	}
	k := b.class(pi)
	return b.eff(w, b.row(k), k, b.class(pj))
}

// skipExhaustive is skipStep's fallback when rejected placements exhaust
// its attempt budget: it enumerates the feasible pairs of C, draws the run
// of S steps before the first of them, and fires one uniformly.
func (w *World[S]) skipExhaustive(limit int64) (StepInfo, bool, error) {
	b := w.book
	type inter struct {
		pi, pj PortRef
		rots   []grid.Rot
	}
	var inters []inter
	w.eachInterPair(func(pi, pj PortRef, lone bool) {
		if lone && !w.interEffective(pi, pj) {
			return
		}
		if rots := w.feasibleRotations(pi, pj); len(rots) > 0 {
			inters = append(inters, inter{pi, pj, slices.Clone(rots)})
		}
	})
	cI := int64(len(b.effIntra))
	feasible := cI + int64(len(inters))
	s := w.attempts() - (cI + b.cLM + b.cLL + b.multiT.pairs())
	switch {
	case feasible == 0 && s == 0:
		return StepInfo{}, false, ErrNoInteraction
	case feasible == 0:
		w.jump(limit)
		return StepInfo{}, false, nil
	}
	if s > 0 && !w.skipRun(feasible, s+feasible, limit) {
		return StepInfo{}, false, nil
	}
	r := w.rng.Int63n(feasible)
	if r < cI {
		pp := b.effIntra[r]
		return w.fireIntra(pp, w.nodes[pp.A.Node].bondedTo[pp.A.Port] >= 0), true, nil
	}
	in := inters[r-cI]
	return w.fireInter(in.pi, in.pj, in.rots[w.rng.Intn(len(in.rots))]), true, nil
}

// validateBook recomputes the skip bookkeeping from scratch, asking the
// protocol afresh in both orders for every intra pair and every lone-side
// inter pair through eachInterPair, and compares it exactly: a protocol
// whose Interact is not a pure function of its arguments fails here.
func (w *World[S]) validateBook() error {
	b := w.book
	for id := range w.nodes {
		if b.states[b.sid[id]] != w.nodes[id].state {
			return fmt.Errorf("skip book: node %d interned as another state", id)
		}
	}
	lone := make([]int32, len(b.classes))
	multi := make([]int32, len(b.classes))
	for slot, c := range w.comps {
		want := int32(0)
		if c != nil && len(c.nodes) > 1 {
			want = int32(c.open.Len())
		}
		if slot >= len(b.multiT.weight) || b.multiT.weight[slot] != want {
			return fmt.Errorf("skip book: slot %d multi-node weight is stale", slot)
		}
		if c == nil {
			continue
		}
		for _, ref := range c.open.Items() {
			if len(c.nodes) == 1 {
				lone[b.class(ref)]++
			} else {
				multi[b.class(ref)]++
			}
		}
	}
	if err := b.multiT.validate(); err != nil {
		return fmt.Errorf("skip book: multi-node tickets: %w", err)
	}
	nLone, nActive := 0, 0
	for k := range lone {
		c := &b.classes[k]
		if lone[k] != c.lone || multi[k] != c.multi {
			return fmt.Errorf("skip book: class %d counts %d+%d, want %d+%d", k, c.lone, c.multi, lone[k], multi[k])
		}
		if (lone[k] > 0) != (c.pos[lones] > 0) || (lone[k]+multi[k] > 0) != (c.pos[actives] > 0) {
			return fmt.Errorf("skip book: class %d set membership is stale", k)
		}
		if lone[k] > 0 {
			nLone++
		}
		if lone[k]+multi[k] > 0 {
			nActive++
		}
	}
	if nLone != len(b.sets[lones]) || nActive != len(b.sets[actives]) {
		return fmt.Errorf("skip book: class sets hold %d and %d, want %d and %d",
			len(b.sets[lones]), len(b.sets[actives]), nLone, nActive)
	}

	var effIntra []PortPair
	for _, pp := range w.bonded.Items() {
		if w.intraEffective(pp, true) {
			effIntra = append(effIntra, pp)
		}
	}
	for _, pp := range w.latent.Items() {
		if w.intraEffective(pp, false) {
			effIntra = append(effIntra, pp)
		}
	}
	slices.SortFunc(effIntra, cmpIntra)
	if !slices.Equal(effIntra, b.effIntra) {
		return fmt.Errorf("skip book: %d effective intra pairs, want %d", len(b.effIntra), len(effIntra))
	}

	var lm, ll, mm, ineffective int64
	w.eachInterPair(func(pi, pj PortRef, lonePair bool) {
		switch {
		case !lonePair:
			mm++
		case !w.pairEffective(w.nodes[pi.Node].state, w.nodes[pj.Node].state, pi.Port, pj.Port, false, false):
			ineffective++
		case w.lone(pi.Node) && w.lone(pj.Node):
			ll++
		default:
			lm++
		}
	})
	if b.dirty {
		b.recount(w)
	}
	if b.cLM != lm || b.cLL != ll || b.multiT.pairs() != mm {
		return fmt.Errorf("skip book: C counts lone-multi %d lone-lone %d bodies %d, want %d, %d, %d",
			b.cLM, b.cLL, b.multiT.pairs(), lm, ll, mm)
	}
	if lm+ll+mm+ineffective != w.tickets.pairs() {
		return fmt.Errorf("skip book: %d inter pairs enumerated, tickets count %d",
			lm+ll+mm+ineffective, w.tickets.pairs())
	}
	return nil
}
