// Package rules implements the finite protocols of Definition 1: a 2D (or
// 3D) protocol is a 4-tuple (Q, q0, Qout, delta) where delta maps
// ((state, port), (state, port), edge-state) to (state, state, edge-state).
//
// Tables store only effective rules, mirroring how the paper presents
// protocols ("all transitions that do not appear have no effect"). Lookups
// handle the unordered nature of interactions by trying both orientations of
// the pair.
package rules

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"shapesol/internal/grid"
)

// State is a node state. States are human-readable strings matching the
// paper's notation (for example "Lu", "q0", "L2d").
type State string

// Half is one side of an interaction: a state observed through a port.
type Half struct {
	State State
	Port  grid.Dir
}

// key identifies the left-hand side of a rule.
type key struct {
	A, B Half
	Edge bool
}

// Outcome is the right-hand side of a rule.
type Outcome struct {
	A, B State
	Edge bool
}

// Rule is a complete transition (a, pa), (b, pb), edge -> (a', b', edge').
type Rule struct {
	A, B Half
	Edge bool
	Out  Outcome
}

// Effective reports whether the rule changes anything (Section 3).
func (r Rule) Effective() bool {
	return r.A.State != r.Out.A || r.B.State != r.Out.B || r.Edge != r.Out.Edge
}

// String renders the rule in the paper's notation.
func (r Rule) String() string {
	e := map[bool]string{false: "0", true: "1"}
	return fmt.Sprintf("(%s,%s),(%s,%s),%s -> (%s,%s,%s)",
		r.A.State, r.A.Port, r.B.State, r.B.Port, e[r.Edge], r.Out.A, r.Out.B, e[r.Out.Edge])
}

// Table is a deterministic rule table plus the protocol's distinguished
// states. The zero value is unusable; call NewTable.
type Table struct {
	name    string
	initial State
	leader  State // "" when the protocol has no pre-elected leader
	rules   map[key]Outcome
	halting map[State]bool
	output  map[State]bool
	states  map[State]bool
}

// NewTable returns an empty table for a protocol whose non-leader nodes
// start in state initial.
func NewTable(name string, initial State) *Table {
	t := &Table{
		name:    name,
		initial: initial,
		rules:   make(map[key]Outcome),
		halting: make(map[State]bool),
		output:  make(map[State]bool),
		states:  make(map[State]bool),
	}
	t.states[initial] = true
	return t
}

// Name returns the protocol's name.
func (t *Table) Name() string { return t.name }

// Initial returns q0.
func (t *Table) Initial() State { return t.initial }

// SetLeader declares the special initial leader state L0 (Definition 1).
func (t *Table) SetLeader(s State) {
	t.leader = s
	t.states[s] = true
}

// Leader returns the initial leader state, or "" if none.
func (t *Table) Leader() State { return t.leader }

// SetHalting marks states from Q_halt: every rule containing them must be
// ineffective, which Validate enforces.
func (t *Table) SetHalting(states ...State) {
	for _, s := range states {
		t.halting[s] = true
		t.states[s] = true
	}
}

// SetOutput marks states from Q_out.
func (t *Table) SetOutput(states ...State) {
	for _, s := range states {
		t.output[s] = true
		t.states[s] = true
	}
}

// Halting reports whether s is in Q_halt.
func (t *Table) Halting(s State) bool { return t.halting[s] }

// Output reports whether s is in Q_out.
func (t *Table) Output(s State) bool { return t.output[s] }

// Add inserts an effective rule. It returns an error on a conflicting
// duplicate (determinism violation) or on a rule involving a halting state.
func (t *Table) Add(a State, pa grid.Dir, b State, pb grid.Dir, edge bool, na, nb State, newEdge bool) error {
	r := Rule{A: Half{a, pa}, B: Half{b, pb}, Edge: edge, Out: Outcome{na, nb, newEdge}}
	if !r.Effective() {
		return fmt.Errorf("rules: %v is ineffective; tables store only effective rules", r)
	}
	if t.halting[a] || t.halting[b] {
		return fmt.Errorf("rules: %v involves a halting state", r)
	}
	k := key{A: r.A, B: r.B, Edge: edge}
	mirror := key{A: r.B, B: r.A, Edge: edge}
	if out, ok := t.rules[k]; ok && out != r.Out {
		return fmt.Errorf("rules: conflicting duplicate for %v", r)
	}
	if out, ok := t.rules[mirror]; ok && k != mirror && (out.A != nb || out.B != na || out.Edge != newEdge) {
		return fmt.Errorf("rules: conflicting mirrored rule for %v", r)
	}
	t.rules[k] = r.Out
	for _, s := range []State{a, b, na, nb} {
		t.states[s] = true
	}
	return nil
}

// MustAdd is Add that panics on error; protocol tables are static program
// data, so a bad rule is a programming bug.
func (t *Table) MustAdd(a State, pa grid.Dir, b State, pb grid.Dir, edge bool, na, nb State, newEdge bool) {
	if err := t.Add(a, pa, b, pb, edge, na, nb, newEdge); err != nil {
		panic(err)
	}
}

// MustAddAnyEdge adds the rule for both edge states (the paper's "·"
// wildcard), preserving the edge unless setEdge is non-nil.
func (t *Table) MustAddAnyEdge(a State, pa grid.Dir, b State, pb grid.Dir, na, nb State, newEdge bool) {
	for _, e := range []bool{false, true} {
		r := Rule{A: Half{a, pa}, B: Half{b, pb}, Edge: e, Out: Outcome{na, nb, newEdge}}
		if !r.Effective() {
			continue // the wildcard may be ineffective for one edge value
		}
		if err := t.Add(a, pa, b, pb, e, na, nb, newEdge); err != nil {
			panic(err)
		}
	}
}

// Lookup resolves the interaction ((a,pa),(b,pb),edge). The returned swapped
// flag is true when the rule matched with the operands reversed, in which
// case Outcome.A applies to b and Outcome.B to a. A forward match wins over
// a mirrored one.
//
// Lookup hashes two string-carrying keys per call; the engine interns the
// table once instead (sim.NewTableProtocol), and Lookup remains the
// reference that index is tested against.
func (t *Table) Lookup(a State, pa grid.Dir, b State, pb grid.Dir, edge bool) (out Outcome, swapped, ok bool) {
	if o, found := t.rules[key{A: Half{a, pa}, B: Half{b, pb}, Edge: edge}]; found {
		return o, false, true
	}
	if o, found := t.rules[key{A: Half{b, pb}, B: Half{a, pa}, Edge: edge}]; found {
		return o, true, true
	}
	return Outcome{}, false, false
}

// States returns every state mentioned by the table, sorted. Its length is
// the protocol's size |Q|.
func (t *Table) States() []State {
	out := make([]State, 0, len(t.states))
	for s := range t.states {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns |Q|.
func (t *Table) Size() int { return len(t.states) }

// All yields every rule once, in unspecified order: the O(rules) walk for
// building derived indexes, without Rules' formatting and sorting.
func (t *Table) All() iter.Seq[Rule] {
	return func(yield func(Rule) bool) {
		for k, o := range t.rules {
			if !yield(Rule{A: k.A, B: k.B, Edge: k.Edge, Out: o}) {
				return
			}
		}
	}
}

// Rules returns all rules in deterministic order (for docs and debugging).
func (t *Table) Rules() []Rule {
	out := slices.Collect(t.All())
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Validate checks structural sanity: halting states appear in no rule and
// the initial state exists.
func (t *Table) Validate() error {
	for k, o := range t.rules {
		for s := range t.halting {
			if k.A.State == s || k.B.State == s {
				return fmt.Errorf("rules: halting state %s used in rule LHS", s)
			}
			_ = o
		}
	}
	if !t.states[t.initial] {
		return fmt.Errorf("rules: initial state %s unknown", t.initial)
	}
	return nil
}
