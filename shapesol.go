// Package shapesol is a Go implementation of the model and algorithms of
// Othon Michail, "Terminating Distributed Construction of Shapes and
// Patterns in a Fair Solution of Automata" (2015): finite automata with
// four (2D) or six (3D) local ports float in a well-mixed solution, a
// uniform random scheduler selects permissible node-port pairs, and bonds
// form at unit distance so that every connected component is a shape on the
// unit grid.
//
// The package is a facade over the internal implementation:
//
//   - internal/job — the unified run layer: the protocol registry, the
//     typed Job/Result envelope and the cancellable Run entry point that
//     every construction is exposed through;
//   - internal/sim — the geometric simulation engine (generic over the
//     protocol state type) with an exactly uniform scheduler over the
//     permissible interaction set;
//   - internal/pop — the classical population-protocol engine of Section 5,
//     likewise generic and allocation-free in its step loop;
//   - internal/pop/urn — the urn-compressed population engine that skips
//     ineffective steps in O(1);
//   - internal/counting — the terminating counting protocols (Theorems
//     1-3) and the Conjecture 1 evidence harness;
//   - internal/core — every constructor: the Section 4 rule tables, the
//     Section 6 terminating constructions (Counting-on-a-Line,
//     Square-Knowing-n, the universal TM-simulating constructor, the 3D
//     parallel variant) and Section 7 shape self-replication;
//   - internal/tm, internal/shapes — shape-constructing Turing machines and
//     shape languages (Definition 3);
//   - internal/snap — the versioned, checksummed snapshot container
//     behind checkpointable runs and Resume;
//   - internal/runner — the parallel multi-seed trial executor behind
//     the experiment registry of internal/experiments.
//
// The API is Run: build a Job naming a registered protocol, its typed
// parameters, a seed and optionally an engine, budget or progress
// callback, and receive a Result envelope whose Payload is one of the
// outcome types aliased below. Resume continues a frozen run.
//
// See DESIGN.md for the system inventory and design decisions; the
// paper-versus-measured record behind every theorem and figure is
// declared in internal/experiments and regenerated by cmd/experiments
// into EXPERIMENTS.json.
package shapesol

import (
	"context"

	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/shapes"
	"shapesol/internal/snap"
	"shapesol/internal/viz"
)

// Job describes one protocol execution: protocol name, typed parameters,
// seed, and optional engine/budget/progress overrides.
type Job = job.Job

// Params is the typed parameter set of a Job.
type Params = job.Params

// Result is the common envelope of one executed Job.
type Result = job.Result

// Engine selects the execution engine of a Job.
type Engine = job.Engine

// The engines: the geometric simulator, the exact pair scheduler, and the
// urn-compressed scheduler.
const (
	EngineSim = job.EngineSim
	EnginePop = job.EnginePop
	EngineUrn = job.EngineUrn
)

// Run executes one Job against the protocol registry. Canceling ctx stops
// the run promptly (on the engine's check cadence) with Result.Reason ==
// "canceled"; errors are reserved for invalid jobs.
func Run(ctx context.Context, j Job) (Result, error) {
	return job.Run(ctx, j)
}

// Snapshot is a checkpointable run frozen mid-flight: the normalized job
// plus the engine's serialized state, in a versioned, checksummed
// container. Obtain one through Job.Checkpoint (or a durable shapesold
// daemon) and continue it with Resume.
type Snapshot = snap.Snapshot

// DecodeSnapshot parses and verifies the durable byte form of a
// Snapshot (a shapesolctl snapshot download, a daemon checkpoint file).
func DecodeSnapshot(data []byte) (*Snapshot, error) { return snap.Decode(data) }

// Resume drives a frozen run to completion. The final Result is
// byte-identical (up to WallTime) to the uninterrupted execution of the
// snapshot's job.
func Resume(ctx context.Context, s *Snapshot) (Result, error) {
	return job.Resume(ctx, s)
}

// Protocols returns the registered protocol names.
func Protocols() []string { return job.Names() }

// The payload types of every registered protocol, aliased so that
// Result.Payload can be type-asserted without importing internal
// packages.
type (
	// CountOutcome reports one execution of the Counting-Upper-Bound
	// protocol (Theorem 1): the leader always halts, and with high
	// probability its count R0 is at least n/2 (empirically about 0.9 n,
	// Remark 2). Payload of "counting-upper-bound".
	CountOutcome = counting.UpperBoundOutcome
	// SimpleUIDOutcome is the payload of "simple-uid" (Theorem 2).
	SimpleUIDOutcome = counting.SimpleUIDOutcome
	// UIDOutcome is the payload of "uid" (Theorem 3).
	UIDOutcome = counting.UIDOutcome
	// LeaderlessOutcome is the payload of "leaderless" (Conjecture 1).
	LeaderlessOutcome = counting.LeaderlessOutcome
	// CountLineOutcome is the payload of "count-line" (Lemma 1).
	CountLineOutcome = core.CountLineOutcome
	// SquareOutcome is the payload of "square-knowing-n" (Lemma 2).
	SquareOutcome = core.SquareKnowingNOutcome
	// UniversalOutcome is the payload of "universal" (Theorem 4).
	UniversalOutcome = core.UniversalOutcome
	// Parallel3DOutcome is the payload of "parallel-3d" (Theorem 5).
	Parallel3DOutcome = core.Parallel3DOutcome
	// ReplicationOutcome is the payload of "replication" (Section 7).
	ReplicationOutcome = core.ReplicationOutcome
	// StabilizeOutcome is the payload of "stabilize" (Section 4).
	StabilizeOutcome = core.StabilizeOutcome
)

// Languages lists the built-in shape languages (Definition 3).
func Languages() []string {
	names := make([]string, 0, len(shapes.All()))
	for _, l := range shapes.All() {
		names = append(names, l.Name())
	}
	return names
}

// Render draws a shape as ASCII art.
func Render(s *grid.Shape) string { return viz.RenderShape(s) }
