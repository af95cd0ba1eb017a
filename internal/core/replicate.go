package core

import (
	"context"
	"fmt"

	"shapesol/internal/grid"
	"shapesol/internal/sim"
)

// Shape self-replication (Section 7, Approach 1): a connected shape G with
// a unique leader replicates itself using free nodes.
//
//  1. Squaring: G is completed to its minimum enclosing rectangle R_G by
//     leaderless local rules (Proposition 1): bonded neighbors propagate
//     "wanted" flags for missing side-cells, free nodes attach at wanted
//     open ports, and facing pairs bond. Wants are only ever derived from
//     existing bonds, so the filling never exceeds R_G.
//  2. Rectangle detection: the leader walks to the bottom-left corner and
//     zig-zags upward, comparing row widths and row-above occupancy;
//     mismatches restart the walk later (the paper's "periodically walks
//     around").
//  3. Shifting: w rounds, each attaching a fresh column at the right edge
//     and copying labels one column rightward (round 1 copies the original
//     labels into replica components; later rounds shift the replica
//     block), after which the replica rectangle sits beside the original.
//  4. Split: the leader walks the seam deactivating its bonds; the final
//     cut plants a second leader on the replica side.
//  5. De-squaring: cleanup waves (one per side) finalize each cell's label
//     — original cells keep their own, replica cells adopt the copied one —
//     and dummy (off) cells shed their bonds once both endpoints are
//     waved, releasing exactly two copies of G.
//
// Cells track their bonds per compass direction in their own frame: the
// initial configuration uses identity rotations and attached free nodes
// derive their "north port" from the bond that placed them (rotations
// preserve chirality, so the mapping is consistent).

// rpPhase values for the leader token.
const (
	rpSeek   = iota + 1 // walk to the bottom-left corner
	rpScan              // zig-zag width verification
	rpNewCol            // extend the right edge with a dummy column
	rpVerify            // wait for the new column to complete
	rpCopy              // copy labels one column rightward (zig-zag)
	rpToSeam            // walk to the seam column
	rpSplit             // cut the seam top-down
	rpDone
)

// Compass indices.
const (
	cN = iota
	cE
	cS
	cW
)

var compassDirs = [4]grid.Dir{grid.PY, grid.PX, grid.NY, grid.NX}

// rpToken is the walking leader's control state (bounded counters stand in
// for the paper's marks, see DESIGN.md).
type rpToken struct {
	Phase      int
	Micro      int  // sub-step within rpCopy
	Down       bool // vertical direction of the current column pass
	Carry      bool // label being copied
	W0         int  // measured rectangle width
	RowW       int  // width of the row being scanned
	FirstRow   bool
	AnyN, AllN bool // occupancy of the row above during scanning
	Col        int  // column position (counted from the left edge)
	Rounds     int  // shifting rounds left
}

// ReplicationState is the exported alias of the protocol's state type: the job
// layer's generic snapshot codec must name the concrete type to
// instantiate the engine memento it encodes and restores.
type ReplicationState = rpState

// rpState is the per-node state.
type rpState struct {
	Kind     int // rpKindFree / rpKindCell
	On       bool
	Repl     bool
	North    grid.Dir
	Bonded   [4]bool
	Wanted   [4]bool
	Cleanup  bool
	RepSide  bool
	HasToken bool
	T        rpToken
}

// Node kinds.
const (
	rpKindFree = iota
	rpKindCell
)

// compassOf maps a local port of c to a compass index.
func compassOf(c rpState, p grid.Dir) int {
	q := c.North
	for i := 0; i < 4; i++ {
		if q == p {
			return i
		}
		q = grid.CW(q)
	}
	panic(fmt.Sprintf("core: port %v not planar for compass", p))
}

// portOf maps a compass index to c's local port.
func portOf(c rpState, compass int) grid.Dir {
	q := c.North
	for i := 0; i < compass; i++ {
		q = grid.CW(q)
	}
	return q
}

// northFor computes the newcomer's north port: its port pb faces compass
// direction opposite(d) of the structure.
func northFor(pb grid.Dir, d int) grid.Dir {
	// pb corresponds to compass opposite(d) = d+2 mod 4; north is pb
	// rotated ccw by that many compass steps.
	steps := (d + 2) % 4
	q := pb
	for i := 0; i < steps; i++ {
		q = grid.CCW(q)
	}
	return q
}

// Replicator is the Section 7 Approach 1 protocol. The initial
// configuration must come from ShapeConfig.
type Replicator struct{}

var _ sim.Protocol[rpState] = (*Replicator)(nil)

// ShapeConfig builds the starting configuration: the fully bonded shape G
// (on-cells) with the leader token on its first cell, plus free nodes.
func ShapeConfig(g *grid.Shape, free int) sim.Config[rpState] {
	cells := g.Normalize().Cells()
	specs := make([]sim.NodeSpec[rpState], 0, len(cells))
	for i, pos := range cells {
		st := rpState{Kind: rpKindCell, On: true, North: grid.PY}
		for ci, d := range compassDirs {
			if g.Normalize().Bonded(pos, pos.Step(d)) {
				st.Bonded[ci] = true
			}
		}
		if i == 0 {
			st.HasToken = true
			st.T = rpToken{Phase: rpSeek, FirstRow: true}
		}
		specs = append(specs, sim.NodeSpec[rpState]{State: st, Pos: pos})
	}
	frees := make([]rpState, free)
	for i := range frees {
		frees[i] = rpState{Kind: rpKindFree}
	}
	return sim.Config[rpState]{Components: []sim.ComponentSpec[rpState]{{Cells: specs}}, Free: frees}
}

// InitialState covers nodes outside ShapeConfig.
func (Replicator) InitialState(id, n int) rpState { return rpState{Kind: rpKindFree} }

// Halted reports token completion.
func (Replicator) Halted(s rpState) bool {
	return s.HasToken && s.T.Phase == rpDone
}

// Interact (without component information) treats every unbonded pair as a
// chance encounter; the engine calls InteractSame instead.
func (p Replicator) Interact(a, b rpState, pa, pb grid.Dir, bonded bool) (rpState, rpState, bool, bool) {
	return p.InteractSame(a, b, pa, pb, bonded, bonded)
}

var _ sim.ComponentAware[rpState] = Replicator{}

// InteractSame dispatches the replication rules in both orientations.
func (p Replicator) InteractSame(a, b rpState, pa, pb grid.Dir, bonded, sameComp bool) (rpState, rpState, bool, bool) {
	if na, nb, bond, eff := p.oriented(a, b, pa, pb, bonded, sameComp); eff {
		return na, nb, bond, true
	}
	if nb, na, bond, eff := p.oriented(b, a, pb, pa, bonded, sameComp); eff {
		return na, nb, bond, true
	}
	return a, b, bonded, false
}

func (p Replicator) oriented(a, b rpState, pa, pb grid.Dir, bonded, sameComp bool) (rpState, rpState, bool, bool) {
	bothCells := a.Kind == rpKindCell && b.Kind == rpKindCell

	// --- De-squaring shed (highest priority once both sides are waved) ---
	// Tokens are parked (rpDone) by cleanup time, so bonds under them may
	// shed as well; a token stranded on a dummy simply ends up free.
	if bonded && bothCells && a.Cleanup && b.Cleanup && (!a.On || !b.On) {
		da, db := compassOf(a, pa), compassOf(b, pb)
		a.Bonded[da] = false
		b.Bonded[db] = false
		return a, b, false, true
	}
	// Cleanup wave.
	if bonded && bothCells && a.Cleanup && !b.Cleanup {
		b.Cleanup = true
		b.RepSide = a.RepSide
		if a.RepSide {
			b.On = b.Repl // replica side adopts the copied label
		}
		return a, b, true, true
	}

	// --- Squaring rules (run throughout) --------------------------------
	if bothCells && !bonded && sameComp && !a.Cleanup && !b.Cleanup && a.RepSide == b.RepSide {
		// Facing unbonded neighbors inside the same rigid component bond
		// (latent activation); two separate bodies never glue here, and
		// neither do the two sides of a seam the leader has begun to cut.
		da, db := compassOf(a, pa), compassOf(b, pb)
		a.Bonded[da] = true
		a.Wanted[da] = false
		b.Bonded[db] = true
		b.Wanted[db] = false
		return a, b, true, true
	}
	if bonded && bothCells && !a.Cleanup {
		// Want propagation: along a vertical bond, horizontal bonds of one
		// endpoint imply wanted horizontal cells at the other; and vice
		// versa (Proposition 1's locally detectable patterns).
		d := compassOf(a, pa)
		var sides [2]int
		if d == cN || d == cS {
			sides = [2]int{cE, cW}
		} else {
			sides = [2]int{cN, cS}
		}
		for _, s := range sides {
			if a.Bonded[s] && !b.Bonded[s] && !b.Wanted[s] {
				b.Wanted[s] = true
				return a, b, true, true
			}
		}
	}
	if a.Kind == rpKindCell && b.Kind == rpKindFree && !bonded && !a.Cleanup {
		// Attach a free node at a wanted side.
		for s := 0; s < 4; s++ {
			if a.Wanted[s] && pa == portOf(a, s) {
				a.Wanted[s] = false
				a.Bonded[s] = true
				nb := rpState{Kind: rpKindCell, North: northFor(pb, s)}
				nb.Bonded[(s+2)%4] = true
				return a, nb, true, true
			}
		}
	}

	// --- Leader token ----------------------------------------------------
	// In-place actions (phase transitions, flag setting) may fire on any
	// interaction; moves and cuts need the bonded cell pair.
	if a.HasToken {
		if na, nb, bond, eff := p.token(a, b, pa, bonded && bothCells); eff {
			if !(bonded && bothCells) {
				bond = bonded // token cannot change the bond of other pairs
			}
			return na, nb, bond, true
		}
	}
	return a, b, bonded, false
}

// rpMove transfers the token from a to b when the interaction runs along
// the desired compass direction.
func rpMove(a, b rpState, pa grid.Dir, want int, movable bool, update func(*rpToken)) (rpState, rpState, bool, bool) {
	if !movable || compassOf(a, pa) != want {
		return a, b, true, false
	}
	t := a.T
	if update != nil {
		update(&t)
	}
	a.HasToken = false
	a.T = rpToken{}
	b.HasToken = true
	b.T = t
	return a, b, true, true
}

// token advances the leader's program on a bonded cell pair. The third
// result is the pair's new bond state (only the seam split deactivates).
func (p Replicator) token(a, b rpState, pa grid.Dir, movable bool) (rpState, rpState, bool, bool) {
	t := a.T
	switch t.Phase {
	case rpSeek:
		switch {
		case a.Bonded[cS]:
			return rpMove(a, b, pa, cS, movable, nil)
		case a.Bonded[cW]:
			return rpMove(a, b, pa, cW, movable, nil)
		default: // bottom-left corner: begin scanning
			t.Phase = rpScan
			t.Micro = 0
			t.RowW = 1
			t.FirstRow = true
			t.Down = false
			t.AnyN = a.Bonded[cN]
			t.AllN = a.Bonded[cN]
			a.T = t
			return a, b, true, true
		}
	case rpScan:
		dir := cE
		if t.Down { // "Down" reused as: this row walks westward
			dir = cW
		}
		if a.Bonded[dir] {
			return rpMove(a, b, pa, dir, movable, func(nt *rpToken) {
				nt.RowW++
				nt.AnyN = nt.AnyN || b.Bonded[cN]
				nt.AllN = nt.AllN && b.Bonded[cN]
			})
		}
		// Row end.
		width := t.RowW
		switch {
		case t.FirstRow && t.AllN, !t.FirstRow && t.AllN && width == t.W0:
			// Climb to the next row.
			return rpMove(a, b, pa, cN, movable, func(nt *rpToken) {
				nt.W0 = width
				nt.FirstRow = false
				nt.RowW = 1
				nt.Down = !nt.Down
				nt.AnyN = b.Bonded[cN]
				nt.AllN = b.Bonded[cN]
			})
		case !t.AnyN && (t.FirstRow || width == t.W0):
			// Top row, widths consistent: rectangle confirmed.
			t.W0 = width
			t.Phase = rpNewCol
			t.Rounds = width
			t.Micro = 0
			a.T = t
			// Get to the top-right corner first: handled by rpNewCol's
			// eastward pre-walk (Micro 0).
			return a, b, true, true
		default:
			// Mismatch: not a rectangle yet; restart from the corner.
			t.Phase = rpSeek
			t.FirstRow = true
			a.T = t
			return a, b, true, true
		}
	case rpNewCol:
		switch t.Micro {
		case 0: // walk to the right edge, then to the top
			if a.Bonded[cE] {
				return rpMove(a, b, pa, cE, movable, nil)
			}
			if a.Bonded[cN] {
				return rpMove(a, b, pa, cN, movable, nil)
			}
			t.Micro = 1
			a.T = t
			return a, b, true, true
		case 1: // march down flagging wanted[E]
			if !a.Wanted[cE] && !a.Bonded[cE] {
				a.Wanted[cE] = true
				return a, b, true, true
			}
			if a.Bonded[cS] {
				return rpMove(a, b, pa, cS, movable, nil)
			}
			t.Phase = rpVerify
			a.T = t
			return a, b, true, true
		}
	case rpVerify:
		// Walk up, waiting for each new-column bond to appear.
		if !a.Bonded[cE] {
			return a, b, true, false // wait here; the attach rule will fill it
		}
		if a.Bonded[cN] {
			return rpMove(a, b, pa, cN, movable, nil)
		}
		// Top reached with the full column attached: start the copy pass
		// one column left of the new right edge.
		t.Phase = rpCopy
		t.Micro = 0
		t.Down = true
		a.T = t
		return a, b, true, true
	case rpCopy:
		return p.copyStep(a, b, pa, t, movable)
	case rpToSeam:
		switch t.Micro {
		case 0: // go to the left edge, counting nothing yet
			if a.Bonded[cW] {
				return rpMove(a, b, pa, cW, movable, nil)
			}
			t.Micro = 1
			t.Col = 1
			a.T = t
			return a, b, true, true
		case 1: // walk east to column w0
			if t.Col < t.W0 {
				return rpMove(a, b, pa, cE, movable, func(nt *rpToken) { nt.Col++ })
			}
			// Climb to the top of the seam column.
			if a.Bonded[cN] {
				return rpMove(a, b, pa, cN, movable, nil)
			}
			t.Phase = rpSplit
			a.T = t
			return a, b, true, true
		}
	case rpSplit:
		// Cut the east bond at each seam cell, top-down; the final cut
		// plants the replica-side leader and starts both cleanup waves.
		if movable && a.Bonded[cE] && compassOf(a, pa) == cE {
			a.Bonded[cE] = false
			b.Bonded[(cE+2)%4] = false
			if !a.Bonded[cS] {
				// Last cut: split happens now.
				a.Cleanup = true
				a.T.Phase = rpDone
				b.Cleanup = true
				b.RepSide = true
				b.On = b.Repl
				b.HasToken = true
				b.T = rpToken{Phase: rpDone}
				return a, b, false, true
			}
			// Until the last cut the halves are one rigid component; the
			// replica-side mark keeps latent activation from re-bonding
			// this cut pair before the split.
			b.RepSide = true
			return a, b, false, true
		}
		if !a.Bonded[cE] && a.Bonded[cS] && compassOf(a, pa) == cS {
			// Move down to the next seam cell.
			return rpMove(a, b, pa, cS, movable, nil)
		}
		return a, b, true, false
	}
	return a, b, true, false
}

// copyStep implements the zig-zag label copy: at each cell of the source
// column read the label, hop east to write it, hop back, advance
// vertically; when the left edge finishes, close the round.
func (p Replicator) copyStep(a, b rpState, pa grid.Dir, t rpToken, movable bool) (rpState, rpState, bool, bool) {
	switch t.Micro {
	case 0: // at source cell: read label, hop east
		label := a.Repl
		if t.Rounds == t.W0 { // first round copies the original labels
			label = a.On
		}
		return rpMove(a, b, pa, cE, movable, func(nt *rpToken) {
			nt.Carry = label
			nt.Micro = 1
		})
	case 1: // at destination: write, hop back west
		a.Repl = t.Carry
		t.Micro = 2
		a.T = t
		return a, b, true, true
	case 2:
		return rpMove(a, b, pa, cW, movable, func(nt *rpToken) { nt.Micro = 3 })
	case 3: // advance vertically, or move to the next column
		vdir := cS
		if !t.Down {
			vdir = cN
		}
		if a.Bonded[vdir] {
			return rpMove(a, b, pa, vdir, movable, func(nt *rpToken) { nt.Micro = 0 })
		}
		// Column finished.
		if a.Bonded[cW] {
			return rpMove(a, b, pa, cW, movable, func(nt *rpToken) {
				nt.Micro = 0
				nt.Down = !nt.Down
			})
		}
		// Left edge: the round is complete.
		t.Rounds--
		if t.Rounds > 0 {
			t.Phase = rpNewCol
			t.Micro = 0
		} else {
			t.Phase = rpToSeam
			t.Micro = 0
		}
		a.T = t
		return a, b, true, true
	}
	return a, b, true, false
}

// ReplicationOutcome reports one run of Section 7 Approach 1.
type ReplicationOutcome struct {
	Steps  int64 `json:"steps"`
	Done   bool  `json:"done"`   // both leaders reached rpDone
	Copies int   `json:"copies"` // components whose on-shape equals G up to translation
	Exact  bool  `json:"exact"`  // exactly two faithful copies and nothing larger
	RGSize int   `json:"rg_size"`
}

// NewReplicationWorld builds the Section 7 replication world (the seed
// shape g plus free nodes, g.Size()+free in all) with its two-leaders-done
// predicate installed, ready to Run or to restore a snapshot into. The
// paper's requirement is free >= 2|R_G| - |G|.
func NewReplicationWorld(g *grid.Shape, free int, seed, maxSteps int64, progress func(int64)) (*sim.World[rpState], error) {
	w, err := sim.NewFromConfig(ShapeConfig(g, free), Replicator{}, sim.Options{
		Seed: seed, MaxSteps: maxSteps, CheckEvery: 64, Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	w.SetHaltWhen(func(w *sim.World[rpState]) bool {
		return w.CountNodes(func(s rpState) bool {
			return s.HasToken && s.T.Phase == rpDone
		}) >= 2
	})
	return w, nil
}

// ReplicationOutcomeOf reads the measured outcome off a finished world,
// running the settling phase first (cleanup waves and dummy shedding; the
// context is observed so a late cancel is not absorbed here). A run
// stopped before both leaders finished, canceled or out of budget, skips
// the settling and reports Done=false.
func ReplicationOutcomeOf(ctx context.Context, g *grid.Shape, w *sim.World[rpState], res sim.Result) ReplicationOutcome {
	out := ReplicationOutcome{Steps: res.Steps, RGSize: g.EnclosingRect().Size()}
	if res.Reason != sim.ReasonPredicate {
		return out
	}
	out.Done = true
	// Settle: let the cleanup waves finish labeling and the dummies shed.
	// The context is observed so a late cancel is not absorbed here.
	for settle := w.Steps() + int64(w.N())*20000; w.Steps() < settle && !settled(w) && ctx.Err() == nil; {
		if _, err := w.Step(); err != nil {
			break
		}
	}
	want := g.Normalize()
	for _, slot := range w.ComponentSlots() {
		if w.ComponentSize(slot) < 1 {
			continue
		}
		nodes := w.ComponentNodes(slot)
		allOn := true
		for _, id := range nodes {
			st := w.State(id)
			if !st.On || st.Kind != rpKindCell {
				allOn = false
				break
			}
		}
		if !allOn {
			continue
		}
		shape := w.ComponentShape(slot)
		if shape.CellsOnly().Normalize().Equal(want.CellsOnly().Normalize()) {
			out.Copies++
		} else if shape.Size() > 1 {
			out.Exact = false
		}
	}
	out.Exact = out.Copies == 2
	return out
}

// settled reports whether every cell has received a cleanup wave and no
// dummy retains a bond inside a multi-node component.
func settled(w *sim.World[rpState]) bool {
	for _, slot := range w.ComponentSlots() {
		for _, id := range w.ComponentNodes(slot) {
			st := w.State(id)
			if st.Kind != rpKindCell {
				continue
			}
			if !st.Cleanup {
				return false
			}
			if !st.On && w.ComponentSize(slot) > 1 {
				return false
			}
		}
	}
	return true
}
