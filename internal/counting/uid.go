package counting

import (
	"slices"

	"shapesol/internal/pop"
)

// SimpleUIDState is the per-agent memory of the simple counting protocol of
// Section 5.3.1 (Theorem 2). Every agent records its first B interactions
// in First, tracks the set of distinct ids met, and terminates the first
// time a window of B consecutive interactions repeats First exactly.
type SimpleUIDState struct {
	ID     int
	B      int
	First  []int
	Window []int
	Met    map[int]bool
	Done   bool
	Output int
}

func (s *SimpleUIDState) clone() *SimpleUIDState {
	c := *s
	c.First = slices.Clone(s.First)
	c.Window = slices.Clone(s.Window)
	c.Met = make(map[int]bool, len(s.Met))
	for k := range s.Met {
		c.Met[k] = true
	}
	return &c
}

// observe records an interaction with the agent carrying id other.
func (s *SimpleUIDState) observe(other int) {
	if s.Done {
		return
	}
	s.Met[other] = true
	if len(s.First) < s.B {
		s.First = append(s.First, other)
		return
	}
	s.Window = append(s.Window, other)
	if len(s.Window) < s.B {
		return
	}
	if slices.Equal(s.Window, s.First) {
		s.Done = true
		s.Output = len(s.Met) + 1 // +1 for the agent itself
		return
	}
	s.Window = s.Window[:0]
}

// SimpleUID is the Theorem 2 protocol: correct counting w.h.p. at the cost
// of Theta(n^B) expected termination time.
type SimpleUID struct {
	B int
	// IDs optionally overrides the identifier of each agent; by default
	// agent i has id i+1.
	IDs []int
}

var _ pop.Protocol[*SimpleUIDState] = (*SimpleUID)(nil)

func (p *SimpleUID) idOf(agent int) int {
	if p.IDs != nil {
		return p.IDs[agent]
	}
	return agent + 1
}

// InitialState gives each agent its unique id and empty observation memory.
func (p *SimpleUID) InitialState(id, n int) *SimpleUIDState {
	return &SimpleUIDState{ID: p.idOf(id), B: p.B, Met: make(map[int]bool)}
}

// Apply records the mutual observation on both sides.
func (p *SimpleUID) Apply(a, b *SimpleUIDState) (*SimpleUIDState, *SimpleUIDState, bool) {
	if a.Done && b.Done {
		return a, b, false
	}
	na, nb := a.clone(), b.clone()
	na.observe(b.ID)
	nb.observe(a.ID)
	return na, nb, true
}

// Halted reports termination of the agent.
func (p *SimpleUID) Halted(s *SimpleUIDState) bool { return s.Done }

// SimpleUIDOutcome reports one execution of the simple UID protocol.
type SimpleUIDOutcome struct {
	N      int   `json:"n"`
	B      int   `json:"b"`
	Steps  int64 `json:"steps"`
	Output int   `json:"output"` // count output by the first terminating agent
	Exact  bool  `json:"exact"`  // Output == N
}

// NewSimpleUIDWorld builds the Theorem 2 world, ready to Run or to
// restore a snapshot into.
func NewSimpleUIDWorld(n, b int, seed, maxSteps int64, progress func(int64)) *pop.World[*SimpleUIDState] {
	return pop.New(n, &SimpleUID{B: b}, pop.Options{
		Seed: seed, StopWhenAnyHalted: true, MaxSteps: maxSteps, Progress: progress,
	})
}

// SimpleUIDOutcomeOf reads the measured outcome off a finished world.
func SimpleUIDOutcomeOf(b int, w *pop.World[*SimpleUIDState], res pop.Result) SimpleUIDOutcome {
	out := SimpleUIDOutcome{N: w.N(), B: b, Steps: res.Steps}
	if res.FirstHalted >= 0 {
		st := w.State(res.FirstHalted)
		out.Output = st.Output
		out.Exact = st.Output == w.N()
	}
	return out
}

// NoBelongs marks an agent not yet claimed by any counter (the paper's
// "bottom" value for the belongs variable).
const NoBelongs = 0

// UIDState is the per-agent state of Protocol 3 (Section 5.3.2): counting
// with unique ids and no leader. Ids are positive.
type UIDState struct {
	ID      int
	Belongs int // max id that marked this agent; NoBelongs if none
	Marked  int // 0, 1 or 2
	Count1  int64
	Count2  int64
	Active  bool
	Done    bool
	Output  int64
}

// UID is Protocol 3. Every agent initially behaves as if it were the
// maximum id, marking the agents it meets once and then twice and counting
// both kinds of meetings; meeting a greater id (directly or through a mark)
// deactivates it. With high probability the surviving maximum-id agent
// simulates the Theorem 1 leader and outputs 2*count1 >= n.
//
// NOTE on the pseudocode: the paper's lines 5-18 are read as mutually
// exclusive branches (first meeting marks once, a later meeting marks
// twice). Under a literal sequential reading a fresh agent would be marked
// once and twice within the same interaction as soon as count1 >= b, so the
// count1-count2 gap could never close and no execution would terminate.
type UID struct {
	B   int
	IDs []int // optional id override, default agent i -> i+1
}

var _ pop.Protocol[*UIDState] = (*UID)(nil)

func (p *UID) idOf(agent int) int {
	if p.IDs != nil {
		return p.IDs[agent]
	}
	return agent + 1
}

// InitialState: every agent active, unmarked, unclaimed.
func (p *UID) InitialState(id, n int) *UIDState {
	return &UIDState{ID: p.idOf(id), Active: true}
}

// Apply implements Protocol 3 for the interaction of u, v with idu > idv.
func (p *UID) Apply(a, b *UIDState) (*UIDState, *UIDState, bool) {
	if a.Done || b.Done {
		return a, b, false
	}
	u, v := *a, *b // copy: states are treated as values
	if u.ID < v.ID {
		u, v = v, u
	}
	// Line 1-3: the smaller id deactivates.
	changed := false
	if v.Active {
		v.Active = false
		changed = true
	}
	if u.Active {
		switch {
		case v.Belongs == NoBelongs || v.Belongs < u.ID:
			// First meeting: claim and mark once.
			v.Belongs = u.ID
			v.Marked = 1
			u.Count1++
			changed = true
		case v.Belongs > u.ID:
			// v was claimed by a bigger id: u loses.
			u.Active = false
			changed = true
		case v.Belongs == u.ID && v.Marked == 1 && u.Count1 >= int64(p.B):
			// Second meeting: mark twice.
			v.Marked = 2
			u.Count2++
			changed = true
			if u.Count1 == u.Count2 {
				u.Done = true
				u.Output = 2 * u.Count1
			}
		}
	}
	if !changed {
		return a, b, false
	}
	if a.ID == u.ID {
		return &u, &v, true
	}
	return &v, &u, true
}

// Halted reports termination.
func (p *UID) Halted(s *UIDState) bool { return s.Done }

// UIDOutcome reports one execution of Protocol 3.
type UIDOutcome struct {
	N           int   `json:"n"`
	B           int   `json:"b"`
	Steps       int64 `json:"steps"`
	WinnerIsMax bool  `json:"winner_is_max"` // the halting agent carries the maximum id
	Output      int64 `json:"output"`        // 2 * count1 of the halting agent
	Success     bool  `json:"success"`       // Output >= n (Theorem 3's guarantee)
}

// NewUIDWorld builds the Theorem 3 world (maxSteps 0 means the engine
// default), ready to Run or to restore a snapshot into.
func NewUIDWorld(n, b int, seed, maxSteps int64, progress func(int64)) *pop.World[*UIDState] {
	return pop.New(n, &UID{B: b}, pop.Options{
		Seed: seed, StopWhenAnyHalted: true, MaxSteps: maxSteps, Progress: progress,
	})
}

// UIDOutcomeOf reads the measured outcome off a finished world.
func UIDOutcomeOf(b int, w *pop.World[*UIDState], res pop.Result) UIDOutcome {
	out := UIDOutcome{N: w.N(), B: b, Steps: res.Steps}
	if res.FirstHalted < 0 {
		return out
	}
	st := w.State(res.FirstHalted)
	out.WinnerIsMax = st.ID == w.N() // default ids are 1..n
	out.Output = st.Output
	out.Success = st.Output >= int64(w.N())
	return out
}
