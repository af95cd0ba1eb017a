package core

import (
	"context"
	"fmt"

	"shapesol/internal/grid"
	"shapesol/internal/shapes"
	"shapesol/internal/sim"
	"shapesol/internal/tm"
)

// Universal construction (Section 6.3, Theorem 4): given the d x d square
// with the leader at zig-zag pixel 0, the leader decides every pixel by
// simulating a shape-constructing TM, marks pixels on/off, then releases
// the off pixels so that exactly the target shape G_d remains bonded.
// Remark 4's pattern variant colors the pixels and skips the release.
//
// The leader is a token passed along bonded pairs. The square was built by
// an explicit configuration with identity rotations, so local ports equal
// world directions and the token derives its zig-zag moves from its pixel
// index alone.
//
// Pixel-decision modes:
//
//   - Oracle: the token evaluates the language predicate in one
//     interaction, collapsing the TM's internal computation time (which
//     Theorem 4 itself accounts separately).
//   - MicroStep: the token carries a genuine TM control state
//     (internal/tm) and the square's cells are the machine's tape cells:
//     writing the input, every head move, and clearing the residue each
//     cost scheduler-selected interactions, exactly as Section 6.3
//     describes the leader's walk.

// Token phases.
const (
	uphMark     = iota + 1 // oracle: walk forward deciding pixels
	uphSimIn               // microstep: write the TM input walking right
	uphSimBack             // microstep: walk back to cell 0
	uphSim                 // microstep: execute TM transitions
	uphSimOut              // microstep: walk to the pixel and mark it
	uphClear               // microstep: walk back to 0 clearing residue
	uphRelease             // walk backward releasing (oracle mode)
	uphReleaseF            // walk forward releasing (microstep mode)
	uphDone
)

// UniversalState is the exported alias of the protocol's state type: the job
// layer's generic snapshot codec must name the concrete type to
// instantiate the engine memento it encodes and restores.
type UniversalState = uniCell

// uniCell is one square cell.
type uniCell struct {
	Decided  bool
	On       bool
	Color    shapes.Color
	Released bool
	Spect    bool // inert spectator (never part of the square)
	Sym      byte // TM tape symbol (microstep mode)
	HasToken bool
	T        uniToken
}

// uniToken is the leader walking the square.
type uniToken struct {
	Phase int
	I     int // current pixel index (the token's position)
	D     int
	Pix   int    // microstep: the pixel currently being decided
	InPos int    // microstep: next input symbol index
	State string // microstep: TM control state
}

// Universal is the constructor protocol. Exactly one of Lang, Machine or
// Pattern drives pixel decisions.
type Universal struct {
	D       int
	Lang    shapes.Language
	Machine *tm.PixelMachine // non-nil selects MicroStep mode
	Pattern shapes.PatternLanguage
}

var _ sim.Protocol[uniCell] = (*Universal)(nil)

// SquareConfig builds the starting configuration: a fully bonded d x d
// square with the token on pixel 0, plus inert free spectators.
func (p *Universal) SquareConfig(extraFree int) sim.Config[uniCell] {
	d := p.D
	cells := make([]sim.NodeSpec[uniCell], 0, d*d)
	for i := 0; i < d*d; i++ {
		c := uniCell{Sym: tm.Blank}
		if i == 0 {
			c.HasToken = true
			c.T = p.startToken()
		}
		cells = append(cells, sim.NodeSpec[uniCell]{State: c, Pos: grid.ZigZagPos(i, d)})
	}
	free := make([]uniCell, extraFree)
	for i := range free {
		free[i] = uniCell{Spect: true}
	}
	return sim.Config[uniCell]{Components: []sim.ComponentSpec[uniCell]{{Cells: cells}}, Free: free}
}

func (p *Universal) startToken() uniToken {
	t := uniToken{Phase: uphMark, D: p.D}
	if p.Machine != nil {
		t.Phase = uphSimIn
		t.State = p.Machine.Machine().Start
	}
	return t
}

// InitialState is only used for nodes outside SquareConfig.
func (p *Universal) InitialState(id, n int) uniCell { return uniCell{Spect: true} }

// Halted reports token completion.
func (p *Universal) Halted(s uniCell) bool {
	return s.HasToken && s.T.Phase == uphDone
}

// releasable reports whether a cell sheds every bond: a released off
// pixel. A cell holding the token only sheds once the walk is over — the
// leader itself detaches as a free node when its own pixel is off, exactly
// as the paper notes.
func releasable(c uniCell) bool {
	if !c.Released || !c.Decided || c.On {
		return false
	}
	return !c.HasToken || c.T.Phase == uphDone
}

// Interact applies the release rule and the token program.
func (p *Universal) Interact(a, b uniCell, pa, pb grid.Dir, bonded bool) (uniCell, uniCell, bool, bool) {
	if bonded && (releasable(a) || releasable(b)) {
		return a, b, false, true
	}
	if a.HasToken {
		if na, nb, eff := p.token(a, b, pa, bonded); eff {
			return na, nb, true, true
		}
	}
	if b.HasToken {
		if nb, na, eff := p.token(b, a, pb, bonded); eff {
			return na, nb, true, true
		}
	}
	return a, b, bonded, false
}

// portToward returns the local port leading from pixel i to pixel j
// (adjacent on the zig-zag tape) for identity-rotation squares.
func portToward(i, j, d int) grid.Dir {
	dir, ok := grid.DirOf(grid.ZigZagPos(j, d).Sub(grid.ZigZagPos(i, d)))
	if !ok {
		panic(fmt.Sprintf("core: pixels %d and %d not adjacent at d=%d", i, j, d))
	}
	return dir
}

// token runs one step of the leader's program. a holds the token; b is the
// partner (a bonded square neighbor, or anything for in-place actions).
func (p *Universal) token(a, b uniCell, pa grid.Dir, bonded bool) (uniCell, uniCell, bool) {
	t := a.T
	last := t.D*t.D - 1
	move := func(delta, phase int, prep func(*uniCell, *uniToken)) (uniCell, uniCell, bool) {
		if !bonded || pa != portToward(t.I, t.I+delta, t.D) || b.Spect {
			return a, b, false
		}
		nt := t
		nt.I += delta
		nt.Phase = phase
		if prep != nil {
			prep(&a, &nt)
		}
		a.HasToken = false
		a.T = uniToken{}
		b.HasToken = true
		b.T = nt
		return a, b, true
	}

	switch t.Phase {
	case uphMark:
		if !a.Decided {
			a = p.decide(a, t.I)
			return a, b, true
		}
		if t.I == last {
			if p.Pattern != nil {
				t.Phase = uphDone
			} else {
				t.Phase = uphRelease
				a.Released = true
			}
			a.T = t
			return a, b, true
		}
		return move(+1, uphMark, nil)
	case uphRelease:
		if t.I == 0 {
			t.Phase = uphDone
			a.Released = true
			a.T = t
			return a, b, true
		}
		return move(-1, uphRelease, func(c *uniCell, _ *uniToken) { c.Released = true })
	case uphReleaseF:
		if t.I == last {
			t.Phase = uphDone
			a.Released = true
			a.T = t
			return a, b, true
		}
		return move(+1, uphReleaseF, func(c *uniCell, _ *uniToken) { c.Released = true })
	}
	if p.Machine != nil {
		return p.micro(a, b, pa, bonded)
	}
	return a, b, false
}

// micro implements the MicroStep pipeline for the pixel t.Pix.
func (p *Universal) micro(a, b uniCell, pa grid.Dir, bonded bool) (uniCell, uniCell, bool) {
	t := a.T
	m := p.Machine.Machine()
	input := p.Machine.Encode(t.Pix, t.D)
	move := func(delta, phase int, prep func(*uniToken)) (uniCell, uniCell, bool) {
		if !bonded || pa != portToward(t.I, t.I+delta, t.D) || b.Spect {
			return a, b, false
		}
		nt := t
		nt.I += delta
		nt.Phase = phase
		if prep != nil {
			prep(&nt)
		}
		a.HasToken = false
		a.T = uniToken{}
		b.HasToken = true
		b.T = nt
		return a, b, true
	}

	switch t.Phase {
	case uphSimIn:
		// Write input[InPos] at the current cell, then step right. The
		// runner guarantees the input fits on the d^2-cell tape.
		if a.Sym != input[t.InPos] {
			a.Sym = input[t.InPos]
			return a, b, true
		}
		if t.InPos == len(input)-1 {
			t.Phase = uphSimBack
			a.T = t
			return a, b, true
		}
		return move(+1, uphSimIn, func(nt *uniToken) { nt.InPos++ })
	case uphSimBack:
		if t.I == 0 {
			t.Phase = uphSim
			t.State = m.Start
			a.T = t
			return a, b, true
		}
		return move(-1, uphSimBack, nil)
	case uphSim:
		if t.State == m.Accept || t.State == m.Reject {
			t.Phase = uphSimOut
			a.T = t
			return a, b, true
		}
		act, ok := m.Delta[tm.Key{State: t.State, Read: a.Sym}]
		if !ok {
			t.State = m.Reject
			a.T = t
			return a, b, true
		}
		switch {
		case act.Move == tm.Stay || (act.Move == tm.Left && t.I == 0):
			a.Sym = act.Write
			t.State = act.Next
			a.T = t
			return a, b, true
		case act.Move == tm.Left:
			a.Sym = act.Write // write lands on the departed cell
			return move(-1, uphSim, func(nt *uniToken) { nt.State = act.Next })
		default: // Right; the d^2 tape bounds the machine's space
			if t.I == t.D*t.D-1 {
				t.State = m.Reject
				a.T = t
				return a, b, true
			}
			a.Sym = act.Write
			return move(+1, uphSim, func(nt *uniToken) { nt.State = act.Next })
		}
	case uphSimOut:
		if t.I == t.Pix {
			if !a.Decided {
				a.Decided = true
				a.On = t.State == m.Accept
				return a, b, true
			}
			t.Phase = uphClear
			a.T = t
			return a, b, true
		}
		delta := +1
		if t.Pix < t.I {
			delta = -1
		}
		return move(delta, uphSimOut, nil)
	case uphClear:
		if a.Sym != tm.Blank {
			a.Sym = tm.Blank
			return a, b, true
		}
		if t.I == 0 {
			if t.Pix == t.D*t.D-1 {
				t.Phase = uphReleaseF
				a.Released = true
			} else {
				t.Phase = uphSimIn
				t.Pix++
				t.InPos = 0
			}
			a.T = t
			return a, b, true
		}
		return move(-1, uphClear, nil)
	}
	return a, b, false
}

// decide marks the token's current cell using the oracle (predicate or
// pattern).
func (p *Universal) decide(a uniCell, i int) uniCell {
	a.Decided = true
	switch {
	case p.Pattern != nil:
		a.Color = p.Pattern.Color(i, p.D)
		a.On = true
	default:
		a.On = p.Lang.Pixel(i, p.D)
	}
	return a
}

// UniversalOutcome reports a run of the universal phase.
type UniversalOutcome struct {
	D      int   `json:"d"`
	Steps  int64 `json:"steps"`
	Halted bool  `json:"halted"`
	Match  bool  `json:"match"` // the surviving bonded shape equals G_d (up to translation)
	Waste  int   `json:"waste"` // nodes released
}

// String renders outcomes for logs.
func (o UniversalOutcome) String() string {
	return fmt.Sprintf("d=%d halted=%v match=%v waste=%d steps=%d",
		o.D, o.Halted, o.Match, o.Waste, o.Steps)
}

// NewUniversalWorld builds the Theorem 4 world for proto (the pre-built
// proto.D x proto.D square, leader at pixel 0), ready to Run or to restore
// a snapshot into. D must be at least 2: the 1x1 square has no bonded pair,
// so there is no interaction to schedule, and its outcome is the language's
// one pixel. In MicroStep mode the d^2-cell square is the machine's tape, so
// the binary input (i, d) must fit on it — true for every d >= 4 with the
// compare encoding (the paper's construction likewise assumes the square
// dominates the O(log n) input asymptotically).
func NewUniversalWorld(proto *Universal, seed, maxSteps int64, progress func(int64)) (*sim.World[uniCell], error) {
	d := proto.D
	if d < 2 {
		return nil, fmt.Errorf("core: universal world needs d >= 2, got %d", d)
	}
	if proto.Machine != nil {
		if worst := len(proto.Machine.Encode(d*d-1, d)); worst > d*d {
			return nil, fmt.Errorf("core: input (%d symbols) exceeds the %dx%d tape; use d >= 4", worst, d, d)
		}
	}
	return sim.NewFromConfig(proto.SquareConfig(0), proto, sim.Options{
		Seed: seed, MaxSteps: maxSteps, StopWhenAnyHalted: true, Progress: progress,
	})
}

// UniversalOutcomeOf reads the measured outcome off a finished world,
// first letting the released off pixels finish detaching (bounded budget;
// the context is observed so a late cancel is not absorbed by the
// settling). lang is the language the world decides pixels by (in
// MicroStep mode, its Machine). A run stopped before the leader halted,
// canceled or out of budget, skips the settling and reports Halted=false.
func UniversalOutcomeOf(ctx context.Context, lang shapes.Language, d int, w *sim.World[uniCell], res sim.Result) UniversalOutcome {
	want := shapes.Render(lang, d).Shape()
	out := UniversalOutcome{D: d, Steps: res.Steps}
	if res.Reason != sim.ReasonHalted {
		return out
	}
	out.Halted = true
	for settle := w.Steps() + int64(d*d)*5000; w.Steps() < settle && offStillBonded(w) && ctx.Err() == nil; {
		if _, err := w.Step(); err != nil {
			break
		}
	}
	got := onShape(w)
	out.Match = got.EqualUpToTranslation(want)
	out.Waste = d*d - got.Size()
	return out
}

// offStillBonded reports whether some released off cell retains a bond.
func offStillBonded(w *sim.World[uniCell]) bool {
	for _, slot := range w.ComponentSlots() {
		if w.ComponentSize(slot) < 2 {
			continue
		}
		for _, id := range w.ComponentNodes(slot) {
			if releasable(w.State(id)) {
				return true
			}
		}
	}
	return false
}

// onShape collects the largest bonded component made of on cells.
func onShape(w *sim.World[uniCell]) *grid.Shape {
	best := grid.NewShape()
	for _, slot := range w.ComponentSlots() {
		nodes := w.ComponentNodes(slot)
		if !w.State(nodes[0]).On {
			continue
		}
		s := w.ComponentShape(slot)
		if s.Size() > best.Size() {
			best = s
		}
	}
	return best
}
