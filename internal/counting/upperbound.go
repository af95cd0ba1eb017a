// Package counting implements the probabilistic counting protocols of
// Section 5: the terminating Counting-Upper-Bound protocol with a unique
// leader (Theorem 1), the two counting protocols with unique ids but no
// leader (Theorems 2 and 3), and the observation-sequence framework used as
// experimental evidence for Conjecture 1 (impossibility of leaderless
// counting).
package counting

import (
	"fmt"

	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
)

// Phase is a non-leader agent's phase in Counting-Upper-Bound. It is a
// single byte (not a string) deliberately: UBState is the key of the urn
// engine's state-to-slot map, and a string field forces every map access
// through an indirect hash plus a pointer chase — measurably the largest
// single cost of an n=10^6 urn run before this became a byte.
type Phase uint8

// Agent phases of Counting-Upper-Bound. Non-leader agents move
// q0 -> q1 -> q2 as the leader counts them. The zero value is Q0, matching
// the protocol's initial configuration.
const (
	Q0 Phase = iota
	Q1
	Q2
)

// String implements fmt.Stringer.
func (q Phase) String() string {
	switch q {
	case Q0:
		return "q0"
	case Q1:
		return "q1"
	case Q2:
		return "q2"
	}
	return fmt.Sprintf("Phase(%d)", uint8(q))
}

// Leader is the unique leader's payload in Counting-Upper-Bound: two
// unbounded counters, as assumed in Section 5.1 ("a distinguished leader
// node has unbounded local memory"). R0 counts first meetings (q0 -> q1
// conversions), R1 counts second meetings (q1 -> q2 conversions).
type Leader struct {
	R0, R1 int64
	Done   bool
}

// String implements fmt.Stringer.
func (l Leader) String() string {
	return fmt.Sprintf("L(r0=%d,r1=%d,done=%v)", l.R0, l.R1, l.Done)
}

// UBState is the single agent state type of Counting-Upper-Bound: either
// the leader (IsLeader, with its counters in L) or a phase agent (Q is one
// of Q0, Q1, Q2). A flat value type with no pointers keeps the generic
// engines' hot loops free of interface boxing and makes map hashing of
// the state a single fixed-size hash.
type UBState struct {
	L        Leader
	IsLeader bool
	Q        Phase
}

// String implements fmt.Stringer.
func (s UBState) String() string {
	if s.IsLeader {
		return s.L.String()
	}
	return s.Q.String()
}

// UpperBound is the Counting-Upper-Bound protocol of Theorem 1. The leader
// starts with an R0 head start of B, realized exactly as the paper suggests
// ("having the leader convert b q0s to q1s as a preprocessing step"): B
// agents begin in q1 and the leader in L(b, 0).
//
// Rules:
//
//	(l(r0,r1), .)  -> (halt, .)            if r0 = r1
//	(l(r0,r1), q0) -> (l(r0+1,r1), q1)
//	(l(r0,r1), q1) -> (l(r0,r1+1), q2)
//
// The protocol halts in every execution; with high probability (at least
// 1 - 1/n^(B-2)) R0 >= n/2 at that point.
type UpperBound struct {
	// B is the head start; the failure probability bound is 1/n^(B-2).
	B int
}

// UBState is a flat comparable value type, so the protocol runs unchanged
// on both the exact engine and the urn-compressed one.
var (
	_ pop.Protocol[UBState] = (*UpperBound)(nil)
	_ urn.Protocol[UBState] = (*UpperBound)(nil)
)

// InitialState places the leader at agent 0 and the B head-start agents
// right after it.
func (p *UpperBound) InitialState(id, n int) UBState {
	b := p.headStart(n)
	switch {
	case id == 0:
		return UBState{IsLeader: true, L: Leader{R0: int64(b)}}
	case id <= b:
		return UBState{Q: Q1}
	default:
		return UBState{Q: Q0}
	}
}

// headStart clamps B to the population size: the preprocessing cannot
// convert more agents than exist.
func (p *UpperBound) headStart(n int) int {
	b := p.B
	if b > n-1 {
		b = n - 1
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Apply implements the three rules above on an unordered pair.
func (p *UpperBound) Apply(a, b UBState) (UBState, UBState, bool) {
	if !a.IsLeader {
		if b.IsLeader {
			nb, na, eff := p.Apply(b, a)
			return na, nb, eff
		}
		return a, b, false // two non-leaders never react
	}
	if a.L.Done {
		return a, b, false
	}
	// Halt rule has priority: (l(r0,r1), .) -> (halt, .) if r0 = r1.
	if a.L.R0 == a.L.R1 {
		a.L.Done = true
		return a, b, true
	}
	switch b.Q {
	case Q0:
		a.L.R0++
		b.Q = Q1
		return a, b, true
	case Q1:
		a.L.R1++
		b.Q = Q2
		return a, b, true
	default:
		return a, b, false
	}
}

// Halted reports whether the agent has terminated.
func (p *UpperBound) Halted(s UBState) bool {
	return s.IsLeader && s.L.Done
}

// UpperBoundOutcome is the measured outcome of one Counting-Upper-Bound
// execution.
type UpperBoundOutcome struct {
	N        int     `json:"n"`
	B        int     `json:"b"`
	Steps    int64   `json:"steps"`    // total interactions until the leader halted
	R0       int64   `json:"r0"`       // the leader's count at halting
	Success  bool    `json:"success"`  // R0 >= n/2 (Theorem 1's guarantee)
	Estimate float64 `json:"estimate"` // R0 / n
}

// NewUpperBoundWorld builds the Theorem 1 world on the exact pair
// scheduler (maxSteps 0 means the engine default), ready to Run (or to
// restore a snapshot into — the build / run / read-out phases are
// separable so the job layer can checkpoint and resume mid-flight).
func NewUpperBoundWorld(n, b int, seed, maxSteps int64, progress func(int64)) *pop.World[UBState] {
	return pop.New(n, &UpperBound{B: b}, pop.Options{
		Seed: seed, StopWhenAnyHalted: true, MaxSteps: maxSteps, Progress: progress,
	})
}

// UpperBoundOutcomeOf reads the measured outcome off a finished world.
// The protocol halts in every execution (Theorem 1), so an exhausted
// budget means a much-too-small one; it reads Success=false with Steps
// equal to the budget.
func UpperBoundOutcomeOf(b int, w *pop.World[UBState], res pop.Result) UpperBoundOutcome {
	out := UpperBoundOutcome{N: w.N(), B: b, Steps: res.Steps}
	if res.Reason != pop.ReasonHalted {
		return out
	}
	l := w.State(0).L
	out.R0 = l.R0
	out.Estimate = float64(l.R0) / float64(w.N())
	out.Success = 2*l.R0 >= int64(w.N())
	return out
}

// NewUpperBoundUrnWorld builds the Theorem 1 world on the urn-compressed
// scheduler, ready to Run or to restore a snapshot into. The urn scheduler
// induces the same distribution over configuration trajectories as pop's
// exact pair scheduler (per-seed trajectories differ, aggregates agree
// statistically; see DESIGN.md), but skips the ineffective convergence
// tail in O(1) per effective interaction, so populations of 10^6 and
// beyond are practical.
//
// maxSteps 0 means effectively unbounded: the protocol halts in every
// execution (Theorem 1) after Theta(n^2 log n) simulated steps, which the
// urn engine advances past without iterating.
func NewUpperBoundUrnWorld(n, b int, seed, maxSteps int64, progress func(int64)) *urn.World[UBState] {
	if maxSteps == 0 {
		maxSteps = 1 << 62
	}
	return urn.New(n, &UpperBound{B: b}, pop.Options{
		Seed: seed, StopWhenAnyHalted: true, MaxSteps: maxSteps, Progress: progress,
	})
}

// UpperBoundUrnOutcomeOf reads the measured outcome off a finished urn
// world.
func UpperBoundUrnOutcomeOf(b int, w *urn.World[UBState], res urn.Result) UpperBoundOutcome {
	out := UpperBoundOutcome{N: w.N(), B: b, Steps: res.Steps}
	if res.Reason != pop.ReasonHalted {
		return out
	}
	l, ok := w.FindState(func(s UBState) bool { return s.IsLeader })
	if !ok {
		return out
	}
	out.R0 = l.L.R0
	out.Estimate = float64(l.L.R0) / float64(w.N())
	out.Success = 2*l.L.R0 >= int64(w.N())
	return out
}
