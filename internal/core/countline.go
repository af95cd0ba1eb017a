package core

import (
	"math/bits"

	"shapesol/internal/grid"
	"shapesol/internal/sim"
)

// Counting-on-a-Line (Section 6.1, Lemma 1): the Counting-Upper-Bound
// process of Theorem 1 re-implemented in the geometric model with the
// leader's counters stored in binary, distributed across a self-assembled
// line. Every tape cell holds one bit of each of the three counters R0
// (first meetings), R1 (second meetings) and R2 (the debt incurred by
// binding counted q0s into the tape instead of releasing them as q1).
//
// Layout: [LSB] c0 - c1 - ... - c_{k-1} - LEADER [MSB]. The leader is the
// right end of the line and also stores the most significant bit of every
// counter. When the R0 tape is full (all ones), the next counted q0 is
// bound at the leader's free end; the two nodes swap roles so the old
// leader cell becomes the new most significant tape cell — no bit
// shuffling is needed.
//
// All arithmetic is carried out by a walker token that the (frozen) leader
// launches down the line: the token walks to the left end, then applies
// the operation rightward with carry/borrow, simultaneously accumulating
// the "tape full" (all R0 bits set), "R0 == R1" and "R2 == 0" predicates
// that the leader needs. Every token move is one pairwise interaction on a
// bonded pair, exactly as the paper's leader-walk does it.

// Walker operations.
const (
	opIncR0  = iota + 1 // count a q0 (plain conversion to q1)
	opExtend            // count a bound q0: R0++ and R2++ (debt)
	opIncR1             // count a q1 (conversion to q2), compare R0 == R1
	opDecR2             // repay one unit of debt (q2 converted back to q1)
)

// Node kinds of the Counting-on-a-Line state.
const (
	clKindFree = iota // a non-leader node: phase 0, 1, 2 = the paper's q0, q1, q2
	clKindCell
	clKindLeader
)

// CountLineState is the exported alias of the protocol's state type: the job
// layer's generic snapshot codec must name the concrete type to
// instantiate the engine memento it encodes and restores.
type CountLineState = clState

// clState is the single state type of the protocol: a tagged union over
// the free-node phase, the tape cell, and the leader. Keeping the three
// roles in one flat value type lets the generic engine store states
// unboxed.
type clState struct {
	Kind  int
	Phase int // free-node phase (clKindFree)
	Cell  clCell
	Lead  clLeader
}

func freeSt(phase int) clState  { return clState{Kind: clKindFree, Phase: phase} }
func cellSt(c clCell) clState   { return clState{Kind: clKindCell, Cell: c} }
func leadSt(l clLeader) clState { return clState{Kind: clKindLeader, Lead: l} }

// clWalker is the arithmetic token traveling along the tape.
type clWalker struct {
	Op      int
	Left    bool // heading to the LSB; false = applying rightward
	Carry   bool // pending carry for R0 (and the sole carry of R2 on extend)
	Carry2  bool // pending carry for R2 during opExtend
	Borrow  bool // pending borrow for R2 during opDecR2
	AllOnes bool // R0 bits seen so far are all 1 (tape fullness)
	Eq      bool // R0 == R1 on bits seen so far
	R2Zero  bool // R2 bits seen so far are all 0
}

// clCell is a tape cell: three counter bits plus its orientation along the
// line (local ports toward the two ends).
type clCell struct {
	R0, R1, R2 bool
	LeftEnd    bool
	LeftPort   grid.Dir // meaningful when !LeftEnd
	RightPort  grid.Dir
	HasW       bool
	W          clWalker
}

// clLeader is the leader's full state. Its own R0/R1/R2 bits are the
// current most significant bits of the counters.
type clLeader struct {
	R0, R1, R2 bool
	HasTape    bool
	TapePort   grid.Dir // local port bonded to the tape
	Frozen     bool
	Pending    int  // walker op to launch at the next tape interaction
	Full       bool // the whole R0 tape is all ones
	R2Zero     bool
	H          int // min(#R0 increments, B): head-start gate for R1 counting
	Done       bool
}

// CountLine is the Counting-on-a-Line protocol. B is the head start; as in
// Theorem 1, the leader ignores q1s until it has counted B q0s, giving R0
// a lead of B when the race starts.
type CountLine struct {
	B int
}

var _ sim.Protocol[clState] = (*CountLine)(nil)

// InitialState puts the leader (alone, empty counters) at node 0.
func (p *CountLine) InitialState(id, n int) clState {
	if id == 0 {
		return leadSt(clLeader{R2Zero: true})
	}
	return freeSt(0)
}

// Halted reports leader termination.
func (p *CountLine) Halted(s clState) bool {
	return s.Kind == clKindLeader && s.Lead.Done
}

// Interact dispatches on the participants' roles.
func (p *CountLine) Interact(a, b clState, pa, pb grid.Dir, bonded bool) (clState, clState, bool, bool) {
	// Normalize: leader first when present.
	if b.Kind == clKindLeader && a.Kind != clKindLeader {
		nb, na, bond, eff := p.Interact(b, a, pb, pa, bonded)
		return na, nb, bond, eff
	}
	switch a.Kind {
	case clKindLeader:
		if b.Kind == clKindCell && bonded {
			return p.leaderTape(a.Lead, b.Cell, bonded)
		}
		if b.Kind == clKindFree && !bonded {
			return p.leaderMeetsFree(a.Lead, b.Phase, pa, pb)
		}
	case clKindCell:
		if b.Kind == clKindCell && bonded {
			return p.cellCell(a.Cell, b.Cell, pa, pb)
		}
	}
	return a, b, bonded, false
}

// leaderMeetsFree implements the counting rules on an encounter between the
// unfrozen leader and a free node in phase fp.
func (p *CountLine) leaderMeetsFree(l clLeader, fp int, pa, pb grid.Dir) (clState, clState, bool, bool) {
	if l.Frozen || l.Done {
		return leadSt(l), freeSt(fp), false, false
	}
	if l.Full && l.HasTape && pa != l.TapePort.Opposite() {
		// While the tape is full, a q0 can be counted only by binding it
		// at the leader's free end, so the leader meets every free node
		// there alone, whatever its phase: q0s and q1s are then counted
		// at the same rate per node, as in Theorem 1's race. Counting q1s
		// at the other ports as well would let R1 gain on R0 exactly
		// when R0 = 2^k - 1.
		return leadSt(l), freeSt(fp), false, false
	}
	switch fp {
	case 0: // a q0: count it in R0
		if !l.Full {
			if !l.HasTape {
				// Single-cell tape: operate directly on the leader's bits.
				l.R0 = !l.R0 // 0 -> 1; fullness follows
				l.Full = l.R0
				l.H = min(l.H+1, p.B)
				return leadSt(l), freeSt(1), false, true
			}
			l.Frozen = true
			l.Pending = opIncR0
			return leadSt(l), freeSt(1), false, true
		}
		// Tape full: bind the q0 at the free end and swap roles.
		cell := clCell{
			R0: l.R0, R1: l.R1, R2: l.R2,
			LeftEnd:   !l.HasTape,
			LeftPort:  l.TapePort,
			RightPort: pa,
		}
		newLeader := clLeader{
			HasTape:  true,
			TapePort: pb,
			Frozen:   true,
			Pending:  opExtend,
			R2Zero:   l.R2Zero,
			H:        l.H,
			// Full is recomputed by the walker; the new MSB bit is 0, so
			// the tape is certainly not full now.
		}
		return cellSt(cell), leadSt(newLeader), true, true
	case 1: // a q1: count it in R1 and test for termination
		if l.H < p.B {
			return leadSt(l), freeSt(fp), false, false // head start not yet established
		}
		if !l.HasTape {
			l.R1 = !l.R1
			if l.R0 == l.R1 {
				l.Done = true
			}
			return leadSt(l), freeSt(2), false, true
		}
		l.Frozen = true
		l.Pending = opIncR1
		return leadSt(l), freeSt(2), false, true
	case 2: // a q2: repay debt if any
		if l.R2Zero {
			return leadSt(l), freeSt(fp), false, false
		}
		if !l.HasTape {
			// Debt can only exist with a tape (it is incurred on binding).
			return leadSt(l), freeSt(fp), false, false
		}
		l.Frozen = true
		l.Pending = opDecR2
		return leadSt(l), freeSt(1), false, true
	}
	return leadSt(l), freeSt(fp), false, false
}

// leaderTape handles the bonded leader-neighbor pair: launching a pending
// walker and absorbing a returning one.
func (p *CountLine) leaderTape(l clLeader, c clCell, bonded bool) (clState, clState, bool, bool) {
	switch {
	case l.Frozen && l.Pending != 0 && !c.HasW:
		w := clWalker{Op: l.Pending, Left: true}
		if c.LeftEnd {
			w = applyAtLeftEnd(&c, w)
		}
		c.HasW = true
		c.W = w
		l.Pending = 0
		return leadSt(l), cellSt(c), true, true
	case c.HasW && !c.W.Left:
		// The walker returns to the leader: apply to the MSB bits and act.
		w := c.W
		c.HasW = false
		applyToBits(&w, &l.R0, &l.R1, &l.R2)
		l.Full = w.AllOnes && l.R0
		l.R2Zero = w.R2Zero && !l.R2
		l.Frozen = false
		switch w.Op {
		case opIncR0, opExtend:
			l.H = min(l.H+1, p.B)
		case opIncR1:
			if w.Eq && l.R0 == l.R1 {
				l.Done = true
			}
		}
		return leadSt(l), cellSt(c), true, true
	}
	return leadSt(l), cellSt(c), bonded, false
}

// cellCell moves the walker between adjacent tape cells. The ports of the
// interaction identify direction: a's port toward b must match a's stored
// left/right port.
func (p *CountLine) cellCell(a, b clCell, pa, pb grid.Dir) (clState, clState, bool, bool) {
	switch {
	case a.HasW && a.W.Left && !a.LeftEnd && pa == a.LeftPort:
		w := a.W
		a.HasW = false
		if b.LeftEnd {
			w = applyAtLeftEnd(&b, w)
		}
		b.HasW = true
		b.W = w
		return cellSt(a), cellSt(b), true, true
	case b.HasW && b.W.Left && !b.LeftEnd && pb == b.LeftPort:
		nb, na, bond, eff := p.cellCell(b, a, pb, pa)
		return na, nb, bond, eff
	case a.HasW && !a.W.Left && pa == a.RightPort:
		w := a.W
		a.HasW = false
		applyToBits(&w, &b.R0, &b.R1, &b.R2)
		b.HasW = true
		b.W = w
		return cellSt(a), cellSt(b), true, true
	case b.HasW && !b.W.Left && pb == b.RightPort:
		nb, na, bond, eff := p.cellCell(b, a, pb, pa)
		return na, nb, bond, eff
	}
	return cellSt(a), cellSt(b), true, false
}

// applyAtLeftEnd turns the leftbound walker around, initializing the
// arithmetic at the least significant bit.
func applyAtLeftEnd(c *clCell, w clWalker) clWalker {
	w.Left = false
	w.AllOnes, w.Eq, w.R2Zero = true, true, true
	switch w.Op {
	case opIncR0, opExtend:
		w.Carry = true
		if w.Op == opExtend {
			w.Carry2 = true
		}
	case opIncR1:
		w.Carry = true // reused as the R1 carry
	case opDecR2:
		w.Borrow = true
	}
	applyToBits(&w, &c.R0, &c.R1, &c.R2)
	return w
}

// applyToBits performs the walker's operation on one cell's bits and folds
// the cell into the accumulated predicates.
func applyToBits(w *clWalker, r0, r1, r2 *bool) {
	switch w.Op {
	case opIncR0:
		add(r0, &w.Carry)
	case opExtend:
		add(r0, &w.Carry)
		add(r2, &w.Carry2)
	case opIncR1:
		add(r1, &w.Carry)
	case opDecR2:
		sub(r2, &w.Borrow)
	}
	w.AllOnes = w.AllOnes && *r0
	w.Eq = w.Eq && (*r0 == *r1)
	w.R2Zero = w.R2Zero && !*r2
}

// add folds a carry into one bit.
func add(bit, carry *bool) {
	if *carry {
		old := *bit
		*bit = !old
		*carry = old
	}
}

// sub folds a borrow into one bit.
func sub(bit, borrow *bool) {
	if *borrow {
		old := *bit
		*bit = !old
		*borrow = !old
	}
}

// CountLineOutcome is the measured result of one Counting-on-a-Line run.
type CountLineOutcome struct {
	N          int   `json:"n"`
	B          int   `json:"b"`
	Steps      int64 `json:"steps"`
	R0         int64 `json:"r0"`          // the count read back off the line, in binary
	LineLength int   `json:"line_length"` // tape cells including the leader
	Success    bool  `json:"success"`     // R0 >= n/2
	DebtRepaid bool  `json:"debt_repaid"` // R2 == 0 at termination
	Halted     bool  `json:"halted"`
}

// FindLeader returns the node currently carrying the leader role (it moves
// to the newly bound node on every tape extension), or -1.
func FindLeader(w *sim.World[clState]) int {
	return w.FindNode(func(s clState) bool {
		return s.Kind == clKindLeader
	})
}

// ReadCounters decodes the three counters from the leader's line. The
// leader is the line's right end; bit significance grows from the far end
// toward the leader.
func ReadCounters(w *sim.World[clState], leaderID int) (r0, r1, r2 int64, length int) {
	ls := w.State(leaderID)
	if ls.Kind != clKindLeader {
		return 0, 0, 0, 0
	}
	l := ls.Lead
	if !l.HasTape {
		return b2i(l.R0), b2i(l.R1), b2i(l.R2), 1
	}
	// Collect cells by walking bonds from the leader through its tape port.
	type bit struct{ r0, r1, r2 bool }
	var seq []bit // leader-first (MSB first)
	seq = append(seq, bit{l.R0, l.R1, l.R2})
	id := w.BondedNeighbor(leaderID, l.TapePort)
	for id >= 0 {
		c := w.State(id).Cell
		seq = append(seq, bit{c.R0, c.R1, c.R2})
		if c.LeftEnd {
			break
		}
		id = w.BondedNeighbor(id, c.LeftPort)
	}
	for _, b := range seq {
		r0 = r0<<1 | b2i(b.r0)
		r1 = r1<<1 | b2i(b.r1)
		r2 = r2<<1 | b2i(b.r2)
	}
	return r0, r1, r2, len(seq)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NewCountLineWorld builds the Lemma 1 world, ready to Run or to restore
// a snapshot into.
func NewCountLineWorld(n, b int, seed, maxSteps int64, progress func(int64)) *sim.World[clState] {
	return sim.New(n, &CountLine{B: b}, sim.Options{
		Seed: seed, MaxSteps: maxSteps, StopWhenAnyHalted: true, Progress: progress,
	})
}

// CountLineOutcomeOf reads the measured outcome off a finished world.
func CountLineOutcomeOf(b int, w *sim.World[clState], res sim.Result) CountLineOutcome {
	out := CountLineOutcome{N: w.N(), B: b, Steps: res.Steps}
	if res.Reason != sim.ReasonHalted {
		return out
	}
	out.Halted = true
	r0, _, r2, length := ReadCounters(w, FindLeader(w))
	out.R0 = r0
	out.LineLength = length
	out.Success = 2*r0 >= int64(w.N())
	out.DebtRepaid = r2 == 0
	return out
}

// ExpectedLineLength returns floor(lg r0) + 1, the tape length Lemma 1
// proves.
func ExpectedLineLength(r0 int64) int {
	if r0 <= 0 {
		return 1
	}
	return bits.Len64(uint64(r0))
}
