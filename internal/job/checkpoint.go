package job

import (
	"context"
	"encoding/json"
	"fmt"

	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// This file is the snapshot plumbing between the Spec registry and the
// engines: one generic runner adapter for every engine. The adapter
// instantiated with a protocol's world type *is* that protocol's state
// codec — its closure is the only place in the system that knows which
// memento type to gob-encode on capture and decode on restore, so generic
// engine state round-trips without a global registry of state types.
//
// The adapter factors a spec's Run into build (construct the world, with
// the checkpoint-aware progress callback attached), an optional restore
// (install the snapshot's memento over the initial configuration), the
// engine's RunContext, and read (extract the protocol outcome). The
// capture function handed to Job.Checkpoint freezes the world *and* the
// normalized job into one snap.Snapshot, so a snapshot is self-contained:
// Resume needs nothing but the container bytes.

// encodeSnapshot freezes a quiescent world memento plus the job identity
// into a self-contained snapshot.
func encodeSnapshot(j Job, memento any, steps int64) (*snap.Snapshot, error) {
	jobJSON, err := json.Marshal(j)
	if err != nil {
		return nil, fmt.Errorf("job: encode job for snapshot: %w", err)
	}
	state, err := snap.EncodeState(memento)
	if err != nil {
		return nil, err
	}
	return &snap.Snapshot{
		Protocol: j.Protocol,
		Engine:   string(j.Engine),
		Seed:     j.Seed,
		Steps:    steps,
		Job:      jobJSON,
		State:    state,
	}, nil
}

// progressFn wires the job's Progress and Checkpoint callbacks into one
// engine progress function. capture must freeze the world at call time.
func progressFn(j Job, capture func(steps int64) (*snap.Snapshot, error)) func(int64) {
	if j.Checkpoint == nil {
		return j.Progress
	}
	return func(steps int64) {
		if j.Progress != nil {
			j.Progress(steps)
		}
		j.Checkpoint(steps, func() (*snap.Snapshot, error) { return capture(steps) })
	}
}

// engine is the surface every engine world shares: a scheduler/fault
// profile, a snapshot memento of type M, a metrics sink and a cancelable
// run returning R.
type engine[M, R any] interface {
	ApplyProfile(sched.Profile) error
	Memento() M
	RestoreMemento(M) error
	SetMetrics(*obs.EngineMetrics)
	RunContext(context.Context) R
}

// runner adapts an engine protocol (build + read-out) into a
// snapshot-capable Spec.Run. M and R are inferred from the world type W.
func runner[W engine[M, R], M, R any](
	build func(j Job, progress func(int64)) (W, error),
	read func(ctx context.Context, j Job, w W, res R) (Outcome, error),
) func(context.Context, Job) (Outcome, error) {
	return func(ctx context.Context, j Job) (Outcome, error) {
		var w W
		capture := func(steps int64) (*snap.Snapshot, error) {
			return encodeSnapshot(j, w.Memento(), steps)
		}
		w, err := build(j, progressFn(j, capture))
		if err != nil {
			return Outcome{}, err
		}
		// The profile installs before any restore: RestoreMemento checks that
		// the snapshot's scheduler-state presence matches the world's.
		if j.Params.Fault != nil {
			if err := w.ApplyProfile(*j.Params.Fault); err != nil {
				return Outcome{}, err
			}
		}
		if j.Restore != nil {
			var m M
			if err := snap.DecodeState(j.Restore.State, &m); err != nil {
				return Outcome{}, err
			}
			if err := w.RestoreMemento(m); err != nil {
				return Outcome{}, err
			}
		}
		// Metrics attach after restore so the published baseline is the
		// restored totals: a resumed run reports only its own work.
		w.SetMetrics(j.Metrics)
		res := w.RunContext(ctx)
		return read(ctx, j, w, res)
	}
}
