package check

// This file is the read-out half of the engine: once RunContext has
// explored the reachable configuration space completely, Verdict turns
// the graph into exact answers. Fairness reduces to strongly connected
// components: a fair execution eventually enters a terminal SCC and then
// visits every configuration (and fires every enabled transition) in it
// infinitely often, so
//
//   - every fair execution halts  <=>  every terminal SCC is one
//     absorbing halting configuration;
//   - the worst-case number of effective interactions until a halt is the
//     longest root-to-halt path, finite exactly when the effective
//     transition graph is acyclic (a cycle anywhere lets a finite unfair
//     prefix loop arbitrarily long before fairness kicks in).
//
// A failed claim carries a Witness in generalized lasso form: the prefix
// is a concrete interaction trace from the initial configuration, the
// cycle is empty for a frozen configuration (the scheduler stutters on
// ineffective or vetoed pairs forever) and non-empty for a livelock.

// TraceStep is one interaction of a witness trace: the pair (A, B) was
// scheduled and became (NA, NB). States render via their String form.
type TraceStep struct {
	A  string `json:"a"`
	B  string `json:"b"`
	NA string `json:"na"`
	NB string `json:"nb"`
}

// Witness kinds.
const (
	// WitnessFrozen: a reachable non-halted configuration with no enabled
	// effective interaction — the empty-cycle lasso. Every fair execution
	// reaching it runs forever without halting.
	WitnessFrozen = "frozen"
	// WitnessLivelock: a reachable terminal cycle of non-halted
	// configurations.
	WitnessLivelock = "livelock"
	// WitnessIncorrectHalt: a reachable halting configuration on which the
	// correctness predicate fails.
	WitnessIncorrectHalt = "incorrect-halt"
)

// Witness is a concrete counterexample to a failed claim.
type Witness struct {
	Kind string `json:"kind"`
	// Prefix drives the initial configuration to the witness
	// configuration (the frozen/incorrect one, or the cycle's entry).
	Prefix []TraceStep `json:"prefix,omitempty"`
	// Cycle, for livelocks, loops the entry configuration back to itself.
	Cycle []TraceStep `json:"cycle,omitempty"`
	// Config renders the witness configuration, one "count x state" line
	// per slot.
	Config []string `json:"config"`
}

// Verdict is the exact decision over one explored configuration space.
// Every claim field is meaningful only when Complete is true; an
// exhausted budget or a canceled run decides nothing.
type Verdict struct {
	// Complete: the reachable space was explored exhaustively.
	Complete bool `json:"complete"`
	// Configs counts discovered configurations.
	Configs int64 `json:"configs"`
	// Halts: every fair execution reaches a halting configuration.
	Halts bool `json:"halts"`
	// HaltingConfigs counts reachable halting configurations.
	HaltingConfigs int64 `json:"halting_configs"`
	// AllCorrect: the correctness predicate holds on every reachable
	// halting configuration (vacuously true when there are none).
	AllCorrect bool `json:"all_correct"`
	// IncorrectConfigs counts halting configurations failing the predicate.
	IncorrectConfigs int64 `json:"incorrect_configs"`
	// DepthBounded: the effective transition graph is acyclic, so the
	// worst-case interaction count to halt is finite even without
	// fairness.
	DepthBounded bool `json:"depth_bounded"`
	// MaxDepth is the longest root-to-halt path in effective interactions;
	// 0 unless DepthBounded.
	MaxDepth int64 `json:"max_depth"`
	// Witness is the counterexample for the first failed claim: a non-halt
	// lasso when Halts fails, an incorrect halting configuration when only
	// AllCorrect does.
	Witness *Witness `json:"witness,omitempty"`
}

// succRef is one adjacency entry: the successor node and the interaction
// reaching it.
type succRef struct {
	to  int32
	via edge
}

// Verdict analyzes the explored graph. correct is the protocol's
// correctness predicate over halting configurations, called with the
// configuration's distinct states and their multiplicities; nil means
// every halting configuration counts as correct.
func (e *Explorer[S]) Verdict(correct func(states []S, counts []int64) bool) Verdict {
	v := Verdict{Complete: e.Complete(), Configs: int64(len(e.nodes))}
	if !v.Complete {
		return v
	}

	// Adjacency, recomputed rather than stored: successor generation is
	// deterministic, so the mid-exploration memento stays small and the
	// graph is rebuilt here only when a full verdict is actually wanted.
	succs := make([][]succRef, len(e.nodes))
	closed := true
	for idx := range e.nodes {
		nd := &e.nodes[idx]
		if nd.halted {
			continue // absorbing
		}
		e.transitions(nd.slots, func(via edge, succ []slot) bool {
			to, ok := e.visited[key(succ)]
			succs[idx] = append(succs[idx], succRef{to: to, via: via})
			closed = ok
			return ok
		})
		if !closed {
			// Every successor of an expanded node was discovered when it
			// was expanded, so only a restored memento that moved its head
			// past unexpanded nodes gets here: the graph is not the
			// reachable space, and the verdict makes no claim.
			v.Complete = false
			return v
		}
	}

	// Correctness of halting configurations.
	firstIncorrect := int32(-1)
	for idx := range e.nodes {
		if !e.nodes[idx].halted {
			continue
		}
		v.HaltingConfigs++
		if correct != nil && !e.nodeCorrect(int32(idx), correct) {
			v.IncorrectConfigs++
			if firstIncorrect < 0 {
				firstIncorrect = int32(idx)
			}
		}
	}
	v.AllCorrect = v.IncorrectConfigs == 0

	// Terminal-SCC analysis decides Halts; any cycle decides DepthBounded.
	comp, order := tarjan(len(e.nodes), succs)
	badSCC := int32(-1) // lowest-indexed node of the first bad terminal SCC
	cyclic := false
	members := make(map[int32][]int32, len(order))
	for idx := range e.nodes {
		c := comp[idx]
		members[c] = append(members[c], int32(idx))
	}
	for _, c := range order {
		nodesIn := members[c]
		terminal, selfCyclic := true, false
		for _, nd := range nodesIn {
			for _, s := range succs[nd] {
				if comp[s.to] != c {
					terminal = false
				} else {
					selfCyclic = true
				}
			}
		}
		if selfCyclic || len(nodesIn) > 1 {
			cyclic = true
		}
		if !terminal {
			continue
		}
		bad := len(nodesIn) > 1 || selfCyclic || !e.nodes[nodesIn[0]].halted
		if !bad {
			continue
		}
		low := nodesIn[0] // members are appended in node order: already minimal
		if badSCC < 0 || low < badSCC {
			badSCC = low
		}
	}
	v.Halts = badSCC < 0

	switch {
	case !v.Halts:
		v.Witness = e.lassoWitness(badSCC, comp, succs)
	case firstIncorrect >= 0:
		v.Witness = &Witness{
			Kind:   WitnessIncorrectHalt,
			Prefix: e.prefixTrace(firstIncorrect),
			Config: e.renderConfig(e.nodes[firstIncorrect].slots),
		}
	}

	// Worst-case depth: only finite when the graph is acyclic. Tarjan's
	// output order is reverse topological (successor components first), so
	// one pass computes the longest path from every node.
	if v.Halts && !cyclic {
		v.DepthBounded = true
		depth := make([]int64, len(e.nodes))
		for _, c := range order {
			for _, nd := range members[c] {
				for _, s := range succs[nd] {
					if d := depth[s.to] + 1; d > depth[nd] {
						depth[nd] = d
					}
				}
			}
		}
		v.MaxDepth = depth[0]
	}
	return v
}

// nodeCorrect evaluates the correctness predicate on one configuration.
func (e *Explorer[S]) nodeCorrect(idx int32, correct func([]S, []int64) bool) bool {
	slots := e.nodes[idx].slots
	states := make([]S, len(slots))
	counts := make([]int64, len(slots))
	for i, sl := range slots {
		states[i] = e.states[sl.state]
		counts[i] = int64(sl.count)
	}
	return correct(states, counts)
}

// prefixTrace reconstructs the interaction trace from the root to node
// idx along BFS parent edges (a shortest such trace).
func (e *Explorer[S]) prefixTrace(idx int32) []TraceStep {
	var rev []edge
	for at := idx; e.nodes[at].parent >= 0; at = e.nodes[at].parent {
		rev = append(rev, e.nodes[at].via)
	}
	steps := make([]TraceStep, len(rev))
	for i := range rev {
		steps[i] = e.traceStep(rev[len(rev)-1-i])
	}
	return steps
}

func (e *Explorer[S]) traceStep(ed edge) TraceStep {
	return TraceStep{
		A:  e.renderState(ed.a),
		B:  e.renderState(ed.b),
		NA: e.renderState(ed.na),
		NB: e.renderState(ed.nb),
	}
}

// lassoWitness builds the non-halt witness anchored at entry, the lowest
// node of a bad terminal SCC: the BFS prefix to it plus, when the
// component has edges, a shortest cycle through it (empty for a frozen
// configuration).
func (e *Explorer[S]) lassoWitness(entry int32, comp []int32, succs [][]succRef) *Witness {
	w := &Witness{
		Kind:   WitnessFrozen,
		Prefix: e.prefixTrace(entry),
		Config: e.renderConfig(e.nodes[entry].slots),
	}
	cycle := e.cycleFrom(entry, comp, succs)
	if len(cycle) > 0 {
		w.Kind = WitnessLivelock
		w.Cycle = cycle
	}
	return w
}

// cycleFrom finds a shortest cycle from entry back to itself inside its
// SCC by BFS over in-component edges; nil when the component is a single
// node without a self-edge (frozen).
func (e *Explorer[S]) cycleFrom(entry int32, comp []int32, succs [][]succRef) []TraceStep {
	c := comp[entry]
	type hop struct {
		from int32
		via  edge
	}
	prev := make(map[int32]hop)
	queue := []int32{}
	// Seed with entry's in-component successors (a self-edge closes the
	// cycle immediately).
	for _, s := range succs[entry] {
		if comp[s.to] != c {
			continue
		}
		if s.to == entry {
			return []TraceStep{e.traceStep(s.via)}
		}
		if _, seen := prev[s.to]; !seen {
			prev[s.to] = hop{from: entry, via: s.via}
			queue = append(queue, s.to)
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, s := range succs[at] {
			if comp[s.to] != c {
				continue
			}
			if s.to == entry {
				// Walk back to entry, then reverse.
				var rev []edge
				rev = append(rev, s.via)
				for n := at; n != entry; n = prev[n].from {
					rev = append(rev, prev[n].via)
				}
				steps := make([]TraceStep, len(rev))
				for i := range rev {
					steps[i] = e.traceStep(rev[len(rev)-1-i])
				}
				return steps
			}
			if _, seen := prev[s.to]; !seen {
				prev[s.to] = hop{from: at, via: s.via}
				queue = append(queue, s.to)
			}
		}
	}
	return nil
}

// tarjan computes strongly connected components iteratively (no
// recursion: configuration graphs can be deep). It returns the component
// id of every node and the component ids in output order, which for
// Tarjan is reverse topological: a component is emitted before every
// component that can reach it.
func tarjan(n int, succs [][]succRef) (comp []int32, order []int32) {
	const unvisited = -1
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var next int32
	var ncomp int32

	type frame struct {
		node int32
		succ int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{node: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.succ < len(succs[f.node]) {
				to := succs[f.node][f.succ].to
				f.succ++
				if index[to] == unvisited {
					index[to] = next
					low[to] = next
					next++
					stack = append(stack, to)
					onStack[to] = true
					frames = append(frames, frame{node: to})
				} else if onStack[to] && index[to] < low[f.node] {
					low[f.node] = index[to]
				}
				continue
			}
			// f.node is done: pop a component if it is a root.
			if low[f.node] == index[f.node] {
				c := ncomp
				ncomp++
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp[top] = c
					if top == f.node {
						break
					}
				}
				order = append(order, c)
			}
			done := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[done] < low[p.node] {
					low[p.node] = low[done]
				}
			}
		}
	}
	return comp, order
}
