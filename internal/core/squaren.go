package core

import (
	"context"

	"shapesol/internal/grid"
	"shapesol/internal/sim"
)

// Square-Knowing-n (Section 6.2, Lemma 2): a leader that knows the side
// length d organizes the population into a d x d square and terminates.
//
// The construction follows the paper's plan:
//
//  1. the leader assembles a horizontal line of length d (the square's top
//     row); a fertility wave from the line's end marks completion;
//  2. the line replicates itself once downward, producing the SEED — a
//     free line with its own leader;
//  3. the seed and every released replica keep replicating: fertile line
//     cells attract free nodes below themselves, replica cells bond
//     horizontally, and a completed replica detaches with a fresh leader
//     at one end (the degree-counting release of Protocol 5, so no
//     under-length line is ever released);
//  4. free replicas attach below the square segment through a handshake
//     between the replica leader's up port and the unique acceptor cell at
//     the square's bottom-left corner, which pins the row's alignment; the
//     row then converts to square cells through a rightward wave that
//     stops at the row's end mark, shedding anything bonded beyond it;
//     partial replications hanging below an attaching row are shed too and
//     dissolve back into free nodes (the paper's release of incomplete
//     replications), which is what makes n = d^2 deadlock-free;
//  5. the acceptor counts rows down; the last row only accepts the seed
//     itself ("the seed attaches last"), and its attachment starts a
//     done-wave that reaches the original leader, which halts.
//
// Orientation never uses global coordinates: "down" is always "90 degrees
// clockwise from my right port", which rotations preserve; the handshake's
// port alignment then guarantees the row extends under the square.
//
// Known modeling note (shared with the paper's Protocols 4-5): replica
// cells of two different parent lines could in principle bond if the
// scheduler aligned the two parents end to end, yielding over-length rows
// (and, when the seed is involved, a potential deadlock). Legitimate
// replica bonds are always latent pairs inside ONE parent's component,
// while cross-parent bonds are chance encounters between two bodies — the
// protocol therefore uses the engine's sim.ComponentAware extension to
// accept only the former. The end-mark shed rule remains as a second line
// of defense for overhanging rows.

// Node kinds of the Square-Knowing-n protocol.
const (
	skFree = iota // a free node (q0)
	skLeader
	skCell       // a cell of the original line or of a free line
	skLineLeader // left end of a released line (seed or replica)
	skRep        // replica cell still bonded below its parent line
	skSquare     // a cell of the square segment
	skOrphan     // junk being dissolved back into free nodes
)

// Line kinds.
const (
	lineOrig = iota + 1
	lineSeed
	lineReplica
)

// SquareKnowingNState is the exported alias of the protocol's state type: the job
// layer's generic snapshot codec must name the concrete type to
// instantiate the engine memento it encodes and restores.
type SquareKnowingNState = skState

// skState is the single state struct of the protocol; Kind selects the
// meaningful fields.
type skState struct {
	Kind int
	// Bonds counts this node's active bonds; a node always knows its own
	// ports' states, so the count can be maintained across every rule.
	Bonds int

	// Orientation (cells, leaders): local port toward the line's right
	// end. up = ccw90(Right), down = cw90(Right).
	Right    grid.Dir
	HasRight bool

	// Line bookkeeping.
	LineKind  int  // lineOrig / lineSeed / lineReplica
	Remaining int  // line building: cells still to add to the right
	IsEnd     bool // right end of its line / row
	Fertile   bool // may accept a free node below itself
	UsedDown  bool // original cells replicate only once

	// Replica-cell bookkeeping (skRep).
	HasLeft, HasRgt bool
	RightReleased   bool // the right neighbor has already dropped its vertical
	LeadDesignate   bool // becomes the released line's leader
	EndDesignate    bool // becomes the released line's end

	// Leader / acceptor bookkeeping.
	D        int  // side length (leader only)
	RowsLeft int  // rows still to accept below this acceptor cell
	Acceptor bool // the unique bottom-left acceptor
	Done     bool
}

// SquareKnowingN is the protocol; node 0 starts as the leader who knows D.
type SquareKnowingN struct {
	D int
}

var _ sim.Protocol[skState] = (*SquareKnowingN)(nil)

// InitialState seeds the leader with d.
func (p *SquareKnowingN) InitialState(id, n int) skState {
	if id == 0 {
		l := skState{Kind: skLeader, D: p.D, RowsLeft: p.D - 1, LineKind: lineOrig}
		if p.D == 1 {
			l.Done = true
		}
		return l
	}
	return skState{Kind: skFree}
}

// Halted reports the original leader's termination.
func (p *SquareKnowingN) Halted(s skState) bool {
	return s.Kind == skLeader && s.Done
}

func upOf(right grid.Dir) grid.Dir   { return grid.CCW(right) }
func downOf(right grid.Dir) grid.Dir { return grid.CW(right) }

// Interact without component information conservatively treats unbonded
// pairs as chance encounters; the engine calls InteractSame instead.
func (p *SquareKnowingN) Interact(a, b skState, pa, pb grid.Dir, bonded bool) (skState, skState, bool, bool) {
	return p.InteractSame(a, b, pa, pb, bonded, bonded)
}

var _ sim.ComponentAware[skState] = (*SquareKnowingN)(nil)

// InteractSame dispatches all Square-Knowing-n rules, trying both operand
// orders against the single-sided rule list.
func (p *SquareKnowingN) InteractSame(a, b skState, pa, pb grid.Dir, bonded, sameComp bool) (skState, skState, bool, bool) {
	if na, nb, bond, eff := p.oriented(a, b, pa, pb, bonded, sameComp); eff {
		return na, nb, bond, true
	}
	if nb, na, bond, eff := p.oriented(b, a, pb, pa, bonded, sameComp); eff {
		return na, nb, bond, true
	}
	return a, b, bonded, false
}

// oriented implements every rule with a fixed operand order. Earlier rules
// take priority.
func (p *SquareKnowingN) oriented(a, b skState, pa, pb grid.Dir, bonded, sameComp bool) (skState, skState, bool, bool) {
	// --- Orphan dissolution -------------------------------------------
	if a.Kind == skOrphan {
		if bonded {
			a.Bonds--
			b.Bonds--
			if b.Kind == skRep || b.Kind == skCell || b.Kind == skLineLeader {
				b.Kind = skOrphan // junk-side partners dissolve too
			}
			return a, b, false, true
		}
		if a.Bonds == 0 {
			return skState{Kind: skFree}, b, false, true
		}
		return a, b, bonded, false
	}

	// --- Shedding (priority over conversion/wave rules) -----------------
	// A square cell cuts partial replications hanging below it...
	if a.Kind == skSquare && bonded && b.Kind == skRep && pa == downPortOf(a) {
		a.Bonds--
		b.Bonds--
		b.Kind = skOrphan
		return a, b, false, true
	}
	// ...and anything bonded beyond its row-end mark.
	if a.Kind == skSquare && a.IsEnd && bonded && pa == a.Right &&
		(b.Kind == skCell || b.Kind == skRep || b.Kind == skLineLeader) {
		a.Bonds--
		b.Bonds--
		b.Kind = skOrphan
		return a, b, false, true
	}

	// --- Phase 1: the leader builds the original line ------------------
	if a.Kind == skLeader && !a.Done && a.D >= 2 && !a.HasRight && b.Kind == skFree && !bonded {
		a.Right, a.HasRight = pa, true // first extension fixes orientation
		a.Bonds++
		return a, lineChild(pb, a.D-2), true, true
	}
	if a.Kind == skCell && a.LineKind == lineOrig && a.Remaining > 0 &&
		b.Kind == skFree && !bonded && pa == a.Right {
		a.Bonds++
		rem := a.Remaining
		a.Remaining = 0 // the frontier moves to the child
		return a, lineChild(pb, rem-1), true, true
	}
	// Fertility waves. On the original line the end cell is born fertile
	// and fertility spreads leftward (a sits to b's right); on a released
	// line the new leader is born fertile and fertility spreads rightward.
	// Cells of a partially released row stay infertile — otherwise their
	// children could strand the population's last free nodes under a row
	// that can never complete (the deadlock the paper resolves by making
	// whole lines the unit of replication).
	if a.Kind == skCell && a.Fertile && bonded && pa == a.Right.Opposite() &&
		((b.Kind == skCell && !b.Fertile) || (b.Kind == skLeader && !b.Fertile)) {
		b.Fertile = true
		return a, b, true, true
	}
	if (a.Kind == skLineLeader || a.Kind == skCell) && a.Fertile && bonded &&
		pa == a.Right && b.Kind == skCell && !b.Fertile && b.LineKind != lineOrig {
		b.Fertile = true
		return a, b, true, true
	}

	// --- Phases 2-3: replication below fertile cells --------------------
	if !bonded && b.Kind == skFree && fertileParent(a) && pa == downPortOf(a) {
		child := skState{
			Kind: skRep, Bonds: 1,
			Right: grid.CW(pb), HasRight: true,
			LineKind:      childLineKind(a.LineKind),
			LeadDesignate: a.Kind == skLeader || a.Kind == skLineLeader,
			EndDesignate:  a.IsEnd,
		}
		a.Bonds++
		a.UsedDown = true
		return a, child, true, true
	}
	// Replica cells bond horizontally while both are attached. Legitimate
	// pairs are latent (same parent component); cross-parent encounters
	// are rejected (see the modeling note above).
	if a.Kind == skRep && b.Kind == skRep && !bonded && sameComp &&
		pa == a.Right && pb == b.Right.Opposite() {
		a.HasRgt, b.HasLeft = true, true
		a.Bonds++
		b.Bonds++
		return a, b, true, true
	}
	// Release discipline: verticals drop right-to-left, so a line's leader
	// (its leftmost cell) releases strictly last — at which instant the
	// whole line splits off complete. A replica cell first needs its full
	// horizontal embedding (Protocol 5's degree rule) and, unless it is the
	// end cell, confirmation that its right neighbor already released.
	if a.Kind == skCell && b.Kind == skRep && bonded && !b.RightReleased &&
		pa == a.Right.Opposite() && pb == b.Right {
		// A released cell tells its left neighbor it is free.
		b.RightReleased = true
		return a, b, true, true
	}
	if a.Kind == skRep && bonded && pa == upOf(a.Right) && releaseReady(a) &&
		(b.Kind == skCell || b.Kind == skLeader || b.Kind == skLineLeader || b.Kind == skSquare) {
		a.Bonds--
		b.Bonds--
		released := skState{
			Kind: skCell, Bonds: a.Bonds,
			Right: a.Right, HasRight: true,
			LineKind: a.LineKind, IsEnd: a.EndDesignate,
		}
		if a.LeadDesignate {
			// The leader releases last, so the line is complete now; it
			// seeds the rightward fertility wave.
			released.Kind = skLineLeader
			released.Fertile = true
		}
		return released, b, false, true
	}

	// --- Phase 4: rows attach below the square -------------------------
	if acceptorReady(a) && b.Kind == skLineLeader && !bonded &&
		pa == downPortOf(a) && pb == upOf(b.Right) && kindAllowed(a.RowsLeft, b.LineKind) {
		a.Bonds++
		a.Acceptor = false
		row := skState{
			Kind: skSquare, Bonds: b.Bonds + 1,
			Right: b.Right, HasRight: true,
			RowsLeft: a.RowsLeft - 1,
			Acceptor: a.RowsLeft > 1,
			Done:     a.RowsLeft == 1, // the seed attached: square complete
		}
		return a, row, true, true
	}
	// Row conversion wave: square cells convert their right neighbor,
	// stopping at the row-end mark (overhangs beyond it are shed above).
	if a.Kind == skSquare && !a.IsEnd && b.Kind == skCell && bonded && pa == a.Right {
		nb := skState{
			Kind: skSquare, Bonds: b.Bonds,
			Right: b.Right, HasRight: true,
			IsEnd: b.IsEnd, Done: a.Done,
		}
		return a, nb, true, true
	}
	// Rigidity: vertical latent pairs between stacked square cells (and
	// between the original line and the first row) activate.
	if a.Kind == skSquare && b.Kind == skSquare && !bonded &&
		pa == downPortOf(a) && pb == upOf(b.Right) {
		a.Bonds++
		b.Bonds++
		return a, b, true, true
	}
	if (a.Kind == skLeader || (a.Kind == skCell && a.LineKind == lineOrig)) &&
		b.Kind == skSquare && !bonded && pa == downPortOf(a) && pb == upOf(b.Right) {
		a.Bonds++
		b.Bonds++
		return a, b, true, true
	}

	// --- Phase 5: the done-wave ----------------------------------------
	if a.Kind == skSquare && a.Done && bonded {
		switch b.Kind {
		case skSquare:
			if !b.Done {
				b.Done = true
				return a, b, true, true
			}
		case skCell: // original top-row cells join the square as they learn
			if b.LineKind == lineOrig {
				nb := b
				nb.Kind = skSquare
				nb.Done = true
				return a, nb, true, true
			}
		case skLeader:
			if !b.Done {
				b.Done = true
				return a, b, true, true
			}
		}
	}

	return a, b, bonded, false
}

// lineChild creates a new cell appended at the right end of the original
// line under construction.
func lineChild(pb grid.Dir, remaining int) skState {
	c := skState{
		Kind: skCell, Bonds: 1,
		Right: pb.Opposite(), HasRight: true,
		LineKind: lineOrig, Remaining: remaining,
	}
	if remaining == 0 {
		c.IsEnd = true
		c.Fertile = true // fertility wave starts here
	}
	return c
}

// downPortOf returns the local down port of an oriented node, or an
// invalid sentinel for unoriented ones.
func downPortOf(s skState) grid.Dir {
	if !s.HasRight {
		return grid.NumDirs // never matches a real port
	}
	return downOf(s.Right)
}

// fertileParent reports whether a node currently accepts a free node below
// itself.
func fertileParent(s skState) bool {
	switch s.Kind {
	case skLeader:
		return s.Fertile && !s.UsedDown && s.HasRight
	case skCell:
		return s.Fertile && !(s.LineKind == lineOrig && s.UsedDown)
	case skLineLeader:
		return s.Fertile
	}
	return false
}

func childLineKind(parent int) int {
	if parent == lineOrig {
		return lineSeed
	}
	return lineReplica
}

// releaseReady combines Protocol 5's degree rule with the right-to-left
// release sweep: the end cell releases first; everyone else waits for the
// right neighbor's release.
func releaseReady(s skState) bool {
	switch {
	case s.LeadDesignate:
		return s.HasRgt && s.RightReleased
	case s.EndDesignate:
		return s.HasLeft
	default:
		return s.HasLeft && s.HasRgt && s.RightReleased
	}
}

// acceptorReady reports whether a node is the active bottom-left acceptor.
func acceptorReady(s skState) bool {
	switch s.Kind {
	case skLeader:
		// The original leader accepts the first row once its one-shot seed
		// replication has released (down port free again).
		return !s.Done && s.HasRight && s.Fertile && s.UsedDown && s.RowsLeft > 0
	case skSquare:
		return s.Acceptor && s.RowsLeft > 0
	}
	return false
}

// kindAllowed gates the seed: it attaches only as the very last row.
func kindAllowed(rowsLeft, lineKind int) bool {
	if rowsLeft == 1 {
		return lineKind == lineSeed
	}
	return lineKind == lineReplica
}

// SquareKnowingNOutcome reports one run.
type SquareKnowingNOutcome struct {
	N       int   `json:"n"`
	D       int   `json:"d"`
	Steps   int64 `json:"steps"`
	Halted  bool  `json:"halted"`
	Square  bool  `json:"square"`  // the leader's component is exactly a d x d block
	Spanned int   `json:"spanned"` // size of the leader's component at halting
}

// NewSquareKnowingNWorld builds the Lemma 2 world, ready to Run or to
// restore a snapshot into.
func NewSquareKnowingNWorld(n, d int, seed, maxSteps int64, progress func(int64)) *sim.World[skState] {
	return sim.New(n, &SquareKnowingN{D: d}, sim.Options{
		Seed: seed, MaxSteps: maxSteps, StopWhenAnyHalted: true, Progress: progress,
	})
}

// SquareKnowingNOutcomeOf reads the measured outcome off a finished
// world, running the brief post-halt settling phase first (in-flight
// conversion and shed rules; the paper's construction also stabilizes its
// final bonds after the leader's decision). The context is observed so a
// late cancel is not absorbed here; a run stopped before the leader
// halted, canceled or out of budget, skips the settling and reports
// Halted=false.
func SquareKnowingNOutcomeOf(ctx context.Context, d int, w *sim.World[skState], res sim.Result) SquareKnowingNOutcome {
	n := w.N()
	out := SquareKnowingNOutcome{N: n, D: d, Steps: res.Steps}
	if res.Reason != sim.ReasonHalted {
		return out
	}
	out.Halted = true
	settle := w.Steps() + int64(n)*2000
	for w.Steps() < settle && ctx.Err() == nil {
		if _, err := w.Step(); err != nil {
			break
		}
	}
	slot := w.ComponentOf(0)
	shape := w.ComponentShape(slot)
	out.Spanned = shape.Size()
	h, v, _ := shape.Dims()
	out.Square = h == d && v == d && shape.Size() == d*d
	return out
}
