package job

import (
	"context"
	"fmt"

	"shapesol/internal/check"
	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/rules"
	"shapesol/internal/shapes"
	"shapesol/internal/sim"
)

// This file registers every construction of the paper into the Default
// registry: nine protocol specs — the Section 4 stabilizing tables
// ("stabilize"), the Section 5 counting protocols (Theorems 1-3), the
// Section 6 terminating constructions (Lemmas 1-2, Theorems 4-5) and the
// Section 7 self-replication — plus the Conjecture 1 evidence harness
// ("leaderless"). The per-protocol default budgets are the ones the
// facade used to hardcode (100M for the counting protocols and the
// stabilizing tables, 300M for Square-Knowing-n, 500M for the universal
// constructor and replication); the urn engine's default is effectively
// unbounded, since it skips ineffective steps in O(1).
//
// Every spec's Run is built from the generic runner adapter (see
// checkpoint.go), which factors the execution into build / restore / run
// / read-out for any engine world. The adapter instantiated with the
// protocol's world type doubles as the protocol's snapshot state codec,
// so every protocol × engine pair below is checkpointable and resumable.

// faultField is the scheduler/fault-injection parameter; every spec takes
// it because every engine world accepts ApplyProfile. The object's own
// schema (scheduler kinds, rates, fault clocks) is sched.Schema(), which
// the daemon serves alongside each protocol's parameter list.
var faultField = Field{Name: "fault", Usage: "scheduler + fault-injection profile (object; see the fault schema)"}

// popOutcome wraps a pop-engine protocol outcome in the envelope fields.
func popOutcome(payload any, steps int64, reason pop.StopReason) Outcome {
	return Outcome{
		Steps:   steps,
		Halted:  reason == pop.ReasonHalted,
		Reason:  reason.String(),
		Payload: payload,
	}
}

// simOutcome wraps a sim-engine protocol outcome. halted is the
// protocol's own terminal condition: ReasonHalted for halting-leader
// protocols, ReasonPredicate for predicate-terminated ones.
func simOutcome(payload any, steps int64, reason sim.StopReason, halted bool) Outcome {
	return Outcome{Steps: steps, Halted: halted, Reason: reason.String(), Payload: payload}
}

func init() {
	runUpperBoundPop := runner(
		func(j Job, progress func(int64)) (*pop.World[counting.UBState], error) {
			return counting.NewUpperBoundWorld(j.Params.N, j.Params.B, j.Seed, j.MaxSteps, progress), nil
		},
		func(_ context.Context, j Job, w *pop.World[counting.UBState], res pop.Result) (Outcome, error) {
			out := counting.UpperBoundOutcomeOf(j.Params.B, w, res)
			return popOutcome(out, out.Steps, res.Reason), nil
		})
	runUpperBoundUrn := runner(
		func(j Job, progress func(int64)) (*urn.World[counting.UBState], error) {
			return counting.NewUpperBoundUrnWorld(j.Params.N, j.Params.B, j.Seed, j.MaxSteps, progress), nil
		},
		func(_ context.Context, j Job, w *urn.World[counting.UBState], res urn.Result) (Outcome, error) {
			out := counting.UpperBoundUrnOutcomeOf(j.Params.B, w, res)
			return popOutcome(out, out.Steps, res.Reason), nil
		})
	runUpperBoundCheck := runner(
		func(j Job, progress func(int64)) (*check.Explorer[counting.UBState], error) {
			return counting.NewUpperBoundCheckExplorer(j.Params.N, j.Params.B, j.MaxSteps, progress), nil
		},
		func(_ context.Context, j Job, e *check.Explorer[counting.UBState], res check.Result) (Outcome, error) {
			out := counting.UpperBoundCheckOutcomeOf(j.Params.B, e)
			// Halted is the verified claim, not an observation: true exactly
			// when the exploration completed and every fair execution halts.
			return Outcome{
				Steps:   res.Expanded,
				Halted:  out.Complete && out.Halts,
				Reason:  res.Reason.String(),
				Payload: out,
			}, nil
		})
	Default.Register(Spec{
		Name:    "counting-upper-bound",
		Title:   "Counting-Upper-Bound: terminating counting with a halting leader",
		Paper:   "Theorem 1",
		Engines: []Engine{EnginePop, EngineUrn, EngineCheck},
		Budget:  100_000_000,
		// The check budget bounds discovered configurations, not steps; the
		// CUB space is O(n^2), so 2^20 configurations covers n ~ 1000.
		Budgets: map[Engine]int64{EngineUrn: 1 << 62, EngineCheck: 1 << 20},
		Params: []Field{
			{Name: "n", Usage: "population size", Required: true, Min: 2},
			{Name: "b", Usage: "leader head start", Default: 5, Min: 1},
			faultField,
		},
		Run: func(ctx context.Context, j Job) (Outcome, error) {
			switch j.Engine {
			case EngineUrn:
				return runUpperBoundUrn(ctx, j)
			case EngineCheck:
				return runUpperBoundCheck(ctx, j)
			default:
				return runUpperBoundPop(ctx, j)
			}
		},
	})

	Default.Register(Spec{
		Name:    "simple-uid",
		Title:   "Simple UID counting: exact count w.h.p. in Theta(n^b) time",
		Paper:   "Theorem 2",
		Engines: []Engine{EnginePop},
		Budget:  500_000_000,
		Params: []Field{
			{Name: "n", Usage: "population size", Required: true, Min: 2},
			{Name: "b", Usage: "repeated-window length", Default: 2, Min: 1},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*pop.World[*counting.SimpleUIDState], error) {
				return counting.NewSimpleUIDWorld(j.Params.N, j.Params.B, j.Seed, j.MaxSteps, progress), nil
			},
			func(_ context.Context, j Job, w *pop.World[*counting.SimpleUIDState], res pop.Result) (Outcome, error) {
				out := counting.SimpleUIDOutcomeOf(j.Params.B, w, res)
				return popOutcome(out, out.Steps, res.Reason), nil
			}),
	})

	Default.Register(Spec{
		Name:    "uid",
		Title:   "UID counting (Protocol 3): unique ids, no leader",
		Paper:   "Theorem 3",
		Engines: []Engine{EnginePop},
		Budget:  100_000_000,
		Params: []Field{
			{Name: "n", Usage: "population size", Required: true, Min: 2},
			{Name: "b", Usage: "count1 threshold before second marks", Default: 4, Min: 1},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*pop.World[*counting.UIDState], error) {
				return counting.NewUIDWorld(j.Params.N, j.Params.B, j.Seed, j.MaxSteps, progress), nil
			},
			func(_ context.Context, j Job, w *pop.World[*counting.UIDState], res pop.Result) (Outcome, error) {
				out := counting.UIDOutcomeOf(j.Params.B, w, res)
				return popOutcome(out, out.Steps, res.Reason), nil
			}),
	})

	Default.Register(Spec{
		Name:    "leaderless",
		Title:   "Conjecture 1 evidence: observation-driven early termination",
		Paper:   "Conjecture 1",
		Engines: []Engine{EnginePop},
		Budget:  100_000_000,
		Params: []Field{
			{Name: "n", Usage: "population size", Required: true, Min: 2},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*pop.World[counting.ObsState], error) {
				return counting.NewLeaderlessWorld(counting.TwoZerosProtocol(), j.Params.N, j.Seed, j.MaxSteps, progress), nil
			},
			func(_ context.Context, j Job, w *pop.World[counting.ObsState], res pop.Result) (Outcome, error) {
				out := counting.LeaderlessOutcomeOf(w, res)
				return popOutcome(out, out.Steps, res.Reason), nil
			}),
	})

	Default.Register(Spec{
		Name:    "count-line",
		Title:   "Counting-on-a-Line: the count assembled in binary on a self-built line",
		Paper:   "Lemma 1",
		Engines: []Engine{EngineSim},
		Budget:  100_000_000,
		Params: []Field{
			{Name: "n", Usage: "population size", Required: true, Min: 2},
			{Name: "b", Usage: "leader head start", Default: 3, Min: 1},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*sim.World[core.CountLineState], error) {
				return core.NewCountLineWorld(j.Params.N, j.Params.B, j.Seed, j.MaxSteps, progress), nil
			},
			func(_ context.Context, j Job, w *sim.World[core.CountLineState], res sim.Result) (Outcome, error) {
				out := core.CountLineOutcomeOf(j.Params.B, w, res)
				return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonHalted), nil
			}),
	})

	Default.Register(Spec{
		Name:    "square-knowing-n",
		Title:   "Square-Knowing-n: terminating d x d square from a leader that knows d",
		Paper:   "Lemma 2",
		Engines: []Engine{EngineSim},
		Budget:  300_000_000,
		Params: []Field{
			{Name: "d", Usage: "square side length", Required: true, Min: 1},
			{Name: "n", Usage: "population size (default d*d)", Min: 1},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*sim.World[core.SquareKnowingNState], error) {
				n := j.Params.N
				if n == 0 {
					n = j.Params.D * j.Params.D
				}
				return core.NewSquareKnowingNWorld(n, j.Params.D, j.Seed, j.MaxSteps, progress), nil
			},
			func(ctx context.Context, j Job, w *sim.World[core.SquareKnowingNState], res sim.Result) (Outcome, error) {
				out := core.SquareKnowingNOutcomeOf(ctx, j.Params.D, w, res)
				return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonHalted), nil
			}),
	})

	runUniversal := runner(
		func(j Job, progress func(int64)) (*sim.World[core.UniversalState], error) {
			lang, err := shapes.ByName(j.Params.Lang)
			if err != nil {
				return nil, err
			}
			return core.NewUniversalWorld(&core.Universal{D: j.Params.D, Lang: lang}, j.Seed, j.MaxSteps, progress)
		},
		func(ctx context.Context, j Job, w *sim.World[core.UniversalState], res sim.Result) (Outcome, error) {
			lang, err := shapes.ByName(j.Params.Lang)
			if err != nil {
				return Outcome{}, err
			}
			out := core.UniversalOutcomeOf(ctx, lang, j.Params.D, w, res)
			return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonHalted), nil
		})
	Default.Register(Spec{
		Name:    "universal",
		Title:   "Universal constructor: TM-decided pixels on the square, waste released",
		Paper:   "Theorem 4",
		Engines: []Engine{EngineSim},
		Budget:  500_000_000,
		Params: []Field{
			{Name: "d", Usage: "square side length", Required: true, Min: 1},
			{Name: "lang", Usage: "shape language", DefaultStr: "star"},
			faultField,
		},
		Run: func(ctx context.Context, j Job) (Outcome, error) {
			if j.Params.D == 1 {
				// The 1x1 square has no bonded pair to schedule; the run is
				// trivial and needs no checkpoint path — and has no scheduler
				// to perturb, so a fault profile cannot take effect.
				if j.Params.Fault != nil {
					return Outcome{}, fmt.Errorf("job: universal with d=1 has no scheduler; fault profiles do not apply")
				}
				lang, err := shapes.ByName(j.Params.Lang)
				if err != nil {
					return Outcome{}, err
				}
				out := core.UniversalOutcome{D: 1, Halted: true, Match: lang.Pixel(0, 1)}
				return simOutcome(out, 0, sim.ReasonHalted, true), nil
			}
			return runUniversal(ctx, j)
		},
	})

	Default.Register(Spec{
		Name:    "parallel-3d",
		Title:   "Parallel constructor: per-pixel TM simulations on 3D memory columns",
		Paper:   "Theorem 5",
		Engines: []Engine{EngineSim},
		Budget:  300_000_000,
		Params: []Field{
			{Name: "d", Usage: "square side length", Required: true, Min: 1},
			{Name: "k", Usage: "memory column height", Default: 3, Min: 2},
			{Name: "lang", Usage: "shape language", DefaultStr: "star"},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*sim.World[core.Parallel3DState], error) {
				lang, err := shapes.ByName(j.Params.Lang)
				if err != nil {
					return nil, err
				}
				return core.NewParallel3DWorld(lang, j.Params.D, j.Params.K, j.Seed, j.MaxSteps, progress)
			},
			func(_ context.Context, j Job, w *sim.World[core.Parallel3DState], res sim.Result) (Outcome, error) {
				lang, err := shapes.ByName(j.Params.Lang)
				if err != nil {
					return Outcome{}, err
				}
				out := core.Parallel3DOutcomeOf(lang, j.Params.D, j.Params.K, w, res)
				return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonPredicate), nil
			}),
	})

	Default.Register(Spec{
		Name:    "replication",
		Title:   "Shape self-replication: square, copy out, split, de-square",
		Paper:   "Section 7",
		Engines: []Engine{EngineSim},
		Budget:  500_000_000,
		Params: []Field{
			{Name: "shape", Usage: "the shape to replicate", Required: true},
			{Name: "free", Usage: "free nodes (default the paper's 2|R_G|-|G|)"},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*sim.World[core.ReplicationState], error) {
				g := j.Params.Shape
				free := j.Params.Free
				if free == 0 {
					free = 2*g.EnclosingRect().Size() - g.Size()
				}
				return core.NewReplicationWorld(g, free, j.Seed, j.MaxSteps, progress)
			},
			func(ctx context.Context, j Job, w *sim.World[core.ReplicationState], res sim.Result) (Outcome, error) {
				out := core.ReplicationOutcomeOf(ctx, j.Params.Shape, w, res)
				return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonPredicate), nil
			}),
	})

	Default.Register(Spec{
		Name:    "stabilize",
		Title:   "Section 4 stabilizing tables: spanning line and squares",
		Paper:   "Section 4",
		Engines: []Engine{EngineSim},
		Budget:  100_000_000,
		Params: []Field{
			{Name: "table", Usage: "rule table: line, square or square2", Required: true},
			{Name: "n", Usage: "population size", Required: true, Min: 1},
			faultField,
		},
		Run: runner(
			func(j Job, progress func(int64)) (*sim.World[rules.State], error) {
				return core.NewStabilizeWorld(j.Params.Table, j.Params.N, j.Seed, j.MaxSteps, progress)
			},
			func(_ context.Context, j Job, w *sim.World[rules.State], res sim.Result) (Outcome, error) {
				out := core.StabilizeOutcomeOf(j.Params.Table, w, res)
				return simOutcome(out, out.Steps, res.Reason, res.Reason == sim.ReasonPredicate), nil
			}),
	})
}
