package core

import (
	"fmt"

	"shapesol/internal/grid"
	"shapesol/internal/rules"
	"shapesol/internal/sim"
)

// StabilizeTable resolves a Section 4 stabilizing rule table by name.
func StabilizeTable(name string) (*rules.Table, error) {
	switch name {
	case "line":
		return LineTable(), nil
	case "square":
		return SquareTable(), nil
	case "square2":
		return Square2Table(), nil
	}
	return nil, fmt.Errorf("core: unknown rule table %q (want line, square or square2)", name)
}

// StabilizeOutcome reports one run of a Section 4 stabilizing rule table.
// The protocols stabilize but never terminate — no node knows the
// structure is done — so the run stops the first time the largest bonded
// component spans the population (checked on the engine's CheckEvery
// cadence), or when the step budget runs out.
type StabilizeOutcome struct {
	Table    string `json:"table"`
	N        int    `json:"n"`
	Steps    int64  `json:"steps"`
	Spanned  int    `json:"spanned"`  // size of the largest component at stop
	Spanning bool   `json:"spanning"` // Spanned == N
	// Shape is the largest component's shape. It is reported out of band of
	// the JSON encoding; render it with internal/viz.
	Shape *grid.Shape `json:"-"`
}

// NewStabilizeWorld builds a Section 4 rule-table world on n free nodes
// with its spanning predicate installed, ready to Run or to restore a
// snapshot into. The spanning condition is a SetHaltWhen predicate, so
// the stop reason is sim.ReasonPredicate on success.
func NewStabilizeWorld(table string, n int, seed, maxSteps int64, progress func(int64)) (*sim.World[rules.State], error) {
	t, err := StabilizeTable(table)
	if err != nil {
		return nil, err
	}
	w := sim.New(n, sim.NewTableProtocol(t), sim.Options{
		Seed: seed, MaxSteps: maxSteps, Progress: progress,
	})
	w.SetHaltWhen(func(w *sim.World[rules.State]) bool {
		_, size := w.LargestComponent()
		return size == n
	})
	return w, nil
}

// StabilizeOutcomeOf reads the measured outcome off a finished world.
func StabilizeOutcomeOf(table string, w *sim.World[rules.State], res sim.Result) StabilizeOutcome {
	slot, size := w.LargestComponent()
	return StabilizeOutcome{
		Table:    table,
		N:        w.N(),
		Steps:    res.Steps,
		Spanned:  size,
		Spanning: size == w.N(),
		Shape:    w.ComponentShape(slot),
	}
}
