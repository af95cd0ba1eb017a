package job

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"shapesol/internal/counting"
	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// The pop and urn engines' restore, fuzzed as FuzzSimRestore fuzzes the
// sim engine's: the daemon resumes uploaded snapshots, so a hostile
// memento must come back as an error, or restore to a world that steps to
// its budget without panicking. The corpora start from the golden pop and
// urn jobs' checkpoints, bare and under a crash-and-churn profile, and
// from the committed older urn snapshot.

// fuzzChurn is the profile of the faulted seeds; a memento carrying
// scheduler state restores into a world with it applied.
var fuzzChurn = sched.Profile{CrashEvery: 300, RecoverEvery: 500, MaxCrashes: 8,
	ArriveEvery: 700, DepartEvery: 900, MaxChurn: 40}

// fuzzMaxN bounds the population a fuzzed memento may claim: a world is
// built at that size before the restore can judge the memento.
const fuzzMaxN = 5000

// fuzzBudget is how many steps a restored world runs.
const fuzzBudget = 10_000

// goldenStates returns the engine state of a snapshot taken at every
// eighth Progress tick of the golden job named file, run bare and, for
// 50000 steps, under fuzzChurn.
func goldenStates(f *testing.F, file string) [][]byte {
	var states [][]byte
	ticks := 0
	for _, g := range goldenJobs {
		if g.file != file {
			continue
		}
		for _, fault := range []*sched.Profile{nil, &fuzzChurn} {
			j := g.job
			if fault != nil {
				j.Params.Fault, j.MaxSteps = fault, 50_000
			}
			j.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
				if ticks++; ticks%8 != 1 {
					return
				}
				s, err := capture()
				if err != nil {
					f.Fatal(err)
				}
				states = append(states, s.State)
			}
			if _, err := Run(context.Background(), j); err != nil {
				f.Fatal(err)
			}
		}
	}
	if len(states) == 0 {
		f.Fatalf("golden job %s captured no snapshot", file)
	}
	return states
}

// budgetFor returns the step budget of a world restored at steps, or
// false when the memento's clock leaves no room for one.
func budgetFor(steps int64) (int64, bool) {
	if steps < 0 || steps > math.MaxInt64-fuzzBudget {
		return 0, false
	}
	return steps + fuzzBudget, true
}

func FuzzPopRestore(f *testing.F) {
	for _, s := range goldenStates(f, "counting-upper-bound.pop") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m pop.Memento[counting.UBState]
		if snap.DecodeState(data, &m) != nil || m.N < 2 || m.N > fuzzMaxN {
			return
		}
		budget, ok := budgetFor(m.Steps)
		if !ok {
			return
		}
		w := counting.NewUpperBoundWorld(m.N, 4, 1, budget, nil)
		if m.Sched != nil {
			if err := w.ApplyProfile(fuzzChurn); err != nil {
				t.Fatal(err)
			}
		}
		if w.RestoreMemento(&m) != nil {
			return
		}
		w.Run()
	})
}

func FuzzUrnRestore(f *testing.F) {
	for _, s := range goldenStates(f, "counting-upper-bound.urn") {
		f.Add(s)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "counting-upper-bound.urn.count-sampler.snap"))
	if err != nil {
		f.Fatal(err)
	}
	older, err := snap.Decode(data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(older.State)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m urn.Memento[counting.UBState]
		if snap.DecodeState(data, &m) != nil || m.N < 2 || m.N > fuzzMaxN {
			return
		}
		budget, ok := budgetFor(m.Steps)
		if !ok {
			return
		}
		w := counting.NewUpperBoundUrnWorld(m.N, 5, 1, budget, nil)
		if m.Sched != nil {
			if err := w.ApplyProfile(fuzzChurn); err != nil {
				t.Fatal(err)
			}
		}
		if w.RestoreMemento(&m) != nil {
			return
		}
		w.Run()
	})
}
