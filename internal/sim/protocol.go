// Package sim implements the simulation engine for the geometric network
// constructors model of Michail (2015), Section 3: a population of n
// finite-state automata with 4 (2D) or 6 (3D) ports each, driven by a
// scheduler that at every step selects one permissible node-port pair.
// Components are rigid bodies on the unit grid; bonds form
// at unit distance between aligned ports and every connected component must
// remain a valid shape (no two nodes on the same cell).
//
// The engine is generic over the protocol's state type S: node states live
// unboxed in the per-node records, so the hot step loop performs no
// interface boxing and no per-step heap allocations beyond the (rare)
// component merges and splits that inherently rebuild index structures.
//
// The default scheduler is exactly uniform over the permissible interaction
// set, which is maintained incrementally as three categories:
//
//   - active bonds (always selectable),
//   - latent pairs: facing, unbonded port pairs of adjacent nodes inside one
//     component (selectable because the union is the component itself),
//   - inter-component pairs of open ports, where an open port is one whose
//     facing cell is free within its own component. Such a pair is
//     selectable iff some rigid placement aligning the two ports yields a
//     collision-free union; the engine samples the open-pair superset with
//     exact weights and rejects the (rare) colliding residue, which
//     preserves uniformity over the permissible set.
//
// Non-uniform schedules and fault models layer on top through
// ApplyProfile (see internal/sched): because pairs here come from
// geometry rather than a draw over agent ids, policies act as a veto on
// proposed pairs (adversarial delay, crashed and frozen nodes) and as a
// re-weighting of the inter-component category (clustered locality),
// while population churn adds and removes free nodes between steps. Such
// a world draws every step through Step. A world without a profile
// bypasses the layer entirely, and its RunContext jumps over the
// interactions that change nothing in one geometric draw, with the same
// law (see skip.go).
package sim

import (
	"shapesol/internal/grid"
	"shapesol/internal/rules"
)

// Protocol is the behavior executed at every interaction, generic over the
// per-node state type S. States are opaque to the engine; rule-table
// protocols use rules.State, the programmatic constructors use small
// structs. Two requirements let RunContext skip the interactions that
// change nothing (see skip.go):
//
//   - S is comparable: the engine interns states to cache which port
//     classes interact effectively.
//   - Interact (and InteractSame) is a pure function of its arguments: all
//     randomness in the model comes from the scheduler, so an answer the
//     engine cached stays the answer. World.Validate asks the protocol
//     afresh and fails on a stale cache.
//
// Interact receives the two participating states in arbitrary order
// (interactions are unordered pairs) and must therefore handle both
// orientations.
type Protocol[S comparable] interface {
	// InitialState returns the initial state of node id in a population of
	// n nodes. By convention node 0 carries the pre-elected leader state
	// when the protocol assumes one.
	InitialState(id, n int) S

	// Interact computes delta((a,pa),(b,pb),bonded). It returns the new
	// states, the new bond state, and whether the transition was effective.
	Interact(a, b S, pa, pb grid.Dir, bonded bool) (na, nb S, bond bool, effective bool)

	// Halted reports whether s is a halting state (all rules from it are
	// ineffective and the engine may stop counting the node).
	Halted(s S) bool
}

// ComponentAware is an optional extension of Protocol: when implemented,
// the engine reports whether the interacting pair belongs to one rigid
// component (an active bond or a latent facing pair) or to two distinct
// bodies colliding in the solution. The base model does not expose this
// distinction, but it is physically observable — a port pair held rigidly
// adjacent behaves differently from a chance encounter — and the
// replication constructor of Section 7 needs it to keep its squaring rule
// from gluing independent components (see DESIGN.md).
type ComponentAware[S comparable] interface {
	Protocol[S]
	InteractSame(a, b S, pa, pb grid.Dir, bonded, sameComponent bool) (na, nb S, bond bool, effective bool)
}

// TableProtocol adapts a rules.Table to the Protocol interface over the
// rules.State state type. The table is interned once at construction:
// every state on a rule's left-hand side gets a dense id, and index maps
// each (state, port, state, port, edge) slot to an outcome plus an
// orientation flag, so an interaction costs two string-keyed map reads
// and one slice index instead of rules.Table.Lookup's struct hashing.
type TableProtocol struct {
	table *rules.Table
	ids   map[rules.State]int32
	// index[slot(a, pa, b, pb, edge)] is 0 for no rule, else
	// (outcome index + 1) << 1 | swapped, where swapped means the rule
	// matched with the operands reversed (as in rules.Table.Lookup).
	index []int32
	outs  []rules.Outcome
}

var _ Protocol[rules.State] = (*TableProtocol)(nil)

// NewTableProtocol wraps a finite rule table, interning it in O(rules)
// plus the zeroed index (|Q|^2 * 72 slots for the |Q| states on rules'
// left-hand sides).
func NewTableProtocol(t *rules.Table) *TableProtocol {
	p := &TableProtocol{table: t, ids: make(map[rules.State]int32)}
	intern := func(s rules.State) {
		if _, ok := p.ids[s]; !ok {
			p.ids[s] = int32(len(p.ids))
		}
	}
	for r := range t.All() {
		intern(r.A.State)
		intern(r.B.State)
	}
	p.index = make([]int32, len(p.ids)*len(p.ids)*grid.NumDirs*grid.NumDirs*2)
	for r := range t.All() {
		out := int32(len(p.outs)+1) << 1
		p.outs = append(p.outs, r.Out)
		ia, ib := p.ids[r.A.State], p.ids[r.B.State]
		// The forward orientation always wins; the mirrored one only
		// fills a slot no forward rule claims, whatever the walk order.
		p.index[p.slot(ia, r.A.Port, ib, r.B.Port, r.Edge)] = out
		if m := p.slot(ib, r.B.Port, ia, r.A.Port, r.Edge); p.index[m] == 0 {
			p.index[m] = out | 1
		}
	}
	return p
}

// slot is the index position of an interaction between two interned
// states.
func (p *TableProtocol) slot(ia int32, pa grid.Dir, ib int32, pb grid.Dir, edge bool) int {
	i := ((int(ia)*grid.NumDirs+int(pa))*len(p.ids)+int(ib))*grid.NumDirs + int(pb)
	if edge {
		return 2*i + 1
	}
	return 2 * i
}

// Table returns the underlying rule table.
func (p *TableProtocol) Table() *rules.Table { return p.table }

// InitialState gives node 0 the leader state when the table declares one.
func (p *TableProtocol) InitialState(id, n int) rules.State {
	if id == 0 && p.table.Leader() != "" {
		return p.table.Leader()
	}
	return p.table.Initial()
}

// Interact looks the interaction up in the interned table, which resolves
// both orientations exactly as rules.Table.Lookup does.
func (p *TableProtocol) Interact(a, b rules.State, pa, pb grid.Dir, bonded bool) (rules.State, rules.State, bool, bool) {
	ia, okA := p.ids[a]
	ib, okB := p.ids[b]
	if !okA || !okB {
		return a, b, bonded, false
	}
	e := p.index[p.slot(ia, pa, ib, pb, bonded)]
	if e == 0 {
		return a, b, bonded, false
	}
	out := p.outs[e>>1-1]
	if e&1 == 1 {
		return out.B, out.A, out.Edge, true
	}
	return out.A, out.B, out.Edge, true
}

// Halted reports membership in Q_halt.
func (p *TableProtocol) Halted(s rules.State) bool {
	return p.table.Halting(s)
}
