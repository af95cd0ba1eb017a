package core

import (
	"shapesol/internal/grid"
	"shapesol/internal/shapes"
	"shapesol/internal/sim"
)

// Parallel simulations, Approach 1 (Section 6.4.1, Theorem 5): instead of
// the leader deciding pixels one at a time, the 3D model attaches a memory
// column of k-1 nodes below (in -z) every pixel of the d x d square; each
// pixel runs its own TM simulation on its private column and all d^2
// simulations proceed in parallel. Afterwards the columns are released.
//
// This implementation keeps the structural dynamics — parallel column
// growth below every pixel, per-pixel decision once the pixel's column
// completes, column release — while pixel decisions evaluate the language
// oracle (the same substitution as the Universal constructor's Oracle
// mode). The measurable claim of Theorem 5 survives: the decision phase's
// wall-clock (scheduler steps) scales far better than the sequential
// zig-zag walk of Section 6.3.

// p3 node kinds.
const (
	p3Free = iota
	p3Pixel
	p3Col
	p3Orphan
)

// Parallel3DState is the exported alias of the protocol's state type: the job
// layer's generic snapshot codec must name the concrete type to
// instantiate the engine memento it encodes and restores.
type Parallel3DState = p3State

// p3State is the per-node state of the parallel constructor.
type p3State struct {
	Kind      int
	I, D      int      // pixel identity (pixels only)
	Remaining int      // column cells still needed below this one
	Down      grid.Dir // local port continuing the column (-z direction)
	ColDone   bool
	Decided   bool
	On        bool
	Bonds     int
}

// Parallel3D is the protocol. K is the per-pixel tape length (the paper's
// k); the population must hold d^2 pixels plus (k-1)*d^2 free nodes.
type Parallel3D struct {
	D, K int
	Lang shapes.Language
}

var _ sim.Protocol[p3State] = (*Parallel3D)(nil)

// SquareConfig3D builds the starting 3D configuration: the bonded d x d
// square at z = 0 with per-pixel indices, plus the free column material.
func (p *Parallel3D) SquareConfig3D() sim.Config[p3State] {
	cells := make([]sim.NodeSpec[p3State], 0, p.D*p.D)
	for i := 0; i < p.D*p.D; i++ {
		cells = append(cells, sim.NodeSpec[p3State]{
			State: p3State{Kind: p3Pixel, I: i, D: p.D, Remaining: p.K - 1, Down: grid.NZ},
			Pos:   grid.ZigZagPos(i, p.D),
		})
	}
	free := make([]p3State, (p.K-1)*p.D*p.D)
	for i := range free {
		free[i] = p3State{Kind: p3Free}
	}
	return sim.Config[p3State]{Components: []sim.ComponentSpec[p3State]{{Cells: cells}}, Free: free}
}

// InitialState covers nodes outside the explicit configuration.
func (p *Parallel3D) InitialState(id, n int) p3State { return p3State{Kind: p3Free} }

// Halted is unused: the construction is stabilizing (Remark 5-style); the
// runner stops on the all-pixels-decided predicate.
func (p *Parallel3D) Halted(p3State) bool { return false }

// Interact implements column growth, completion waves, decisions and
// release.
func (p *Parallel3D) Interact(a, b p3State, pa, pb grid.Dir, bonded bool) (p3State, p3State, bool, bool) {
	if na, nb, bond, eff := p.oriented(a, b, pa, pb, bonded); eff {
		return na, nb, bond, true
	}
	if nb, na, bond, eff := p.oriented(b, a, pb, pa, bonded); eff {
		return na, nb, bond, true
	}
	return a, b, bonded, false
}

func (p *Parallel3D) oriented(a, b p3State, pa, pb grid.Dir, bonded bool) (p3State, p3State, bool, bool) {
	// Orphaned column cells dissolve back into free nodes.
	if a.Kind == p3Orphan {
		if bonded {
			a.Bonds--
			b.Bonds--
			if b.Kind == p3Col {
				b.Kind = p3Orphan
			}
			return a, b, false, true
		}
		if a.Bonds == 0 {
			return p3State{Kind: p3Free}, b, false, true
		}
		return a, b, bonded, false
	}
	// Column growth below pixels and column cells.
	if (a.Kind == p3Pixel || a.Kind == p3Col) && a.Remaining > 0 && !a.ColDone &&
		b.Kind == p3Free && !bonded && pa == a.Down {
		a.Bonds++
		child := p3State{
			Kind: p3Col, Bonds: 1,
			Remaining: a.Remaining - 1,
			Down:      pb.Opposite(),
			ColDone:   a.Remaining-1 == 0,
		}
		return a, child, true, true
	}
	// Completion wave up the column.
	if a.Kind == p3Col && a.ColDone && bonded && b.Kind == p3Col && !b.ColDone && pb == b.Down {
		b.ColDone = true
		return a, b, true, true
	}
	if a.Kind == p3Col && a.ColDone && bonded && b.Kind == p3Pixel && !b.ColDone && pb == b.Down {
		b.ColDone = true
		return a, b, true, true
	}
	// Decision: a pixel with its column complete (or no column needed)
	// evaluates its TM on any interaction.
	if a.Kind == p3Pixel && !a.Decided && (a.ColDone || p.K <= 1) {
		a.Decided = true
		a.On = p.Lang.Pixel(a.I, a.D)
		return a, b, bonded, true
	}
	// Release: a decided pixel sheds its column.
	if a.Kind == p3Pixel && a.Decided && bonded && b.Kind == p3Col && pa == a.Down {
		a.Bonds--
		b.Bonds--
		b.Kind = p3Orphan
		return a, b, false, true
	}
	return a, b, bonded, false
}

// Parallel3DOutcome reports one run.
type Parallel3DOutcome struct {
	D       int   `json:"d"`
	K       int   `json:"k"`
	Steps   int64 `json:"steps"` // scheduler steps until every pixel was decided
	Decided bool  `json:"decided"`
	Correct bool  `json:"correct"` // every pixel matches the language
}

// NewParallel3DWorld builds the Theorem 5 world with its all-pixels-
// decided predicate installed, ready to Run or to restore a snapshot
// into.
func NewParallel3DWorld(lang shapes.Language, d, k int, seed, maxSteps int64, progress func(int64)) (*sim.World[p3State], error) {
	proto := &Parallel3D{D: d, K: k, Lang: lang}
	w, err := sim.NewFromConfig(proto.SquareConfig3D(), proto, sim.Options{
		Dim: 3, Seed: seed, MaxSteps: maxSteps, CheckEvery: 64, Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	w.SetHaltWhen(func(w *sim.World[p3State]) bool {
		return w.CountNodes(func(s p3State) bool {
			return s.Kind == p3Pixel && s.Decided
		}) == d*d
	})
	return w, nil
}

// Parallel3DOutcomeOf reads the measured outcome off a finished world.
func Parallel3DOutcomeOf(lang shapes.Language, d, k int, w *sim.World[p3State], res sim.Result) Parallel3DOutcome {
	out := Parallel3DOutcome{D: d, K: k, Steps: res.Steps}
	if res.Reason != sim.ReasonPredicate {
		return out
	}
	out.Decided = true
	out.Correct = true
	for id := 0; id < d*d; id++ {
		st := w.State(id)
		if st.On != lang.Pixel(st.I, d) {
			out.Correct = false
		}
	}
	return out
}
