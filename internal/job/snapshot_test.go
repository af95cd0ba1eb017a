package job

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"shapesol/internal/check"
	"shapesol/internal/counting"
	"shapesol/internal/grid"
	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/rules"
	"shapesol/internal/sched"
	"shapesol/internal/sim"
	"shapesol/internal/snap"
)

// snapshotJobs is one configuration per registered protocol (the urn
// engine gets its own entry), chosen so every run crosses at least one
// progress tick strictly before finishing — the capture window the
// checkpoint layer rides.
var snapshotJobs = []struct {
	name string
	job  Job
}{
	{"counting-upper-bound.pop", Job{Protocol: "counting-upper-bound", Params: Params{N: 60, B: 4}, Seed: 1}},
	{"counting-upper-bound.urn", Job{Protocol: "counting-upper-bound", Engine: EngineUrn, Params: Params{N: 1000}, Seed: 1}},
	// n = 60 puts ~1900 configurations in the check engine's space, so
	// the 256-expansion progress cadence ticks strictly mid-exploration
	// (the n = 8 acceptance instance finishes before the first tick).
	{"counting-upper-bound.check", Job{Protocol: "counting-upper-bound", Engine: EngineCheck, Params: Params{N: 60}, Seed: 1}},
	{"simple-uid", Job{Protocol: "simple-uid", Params: Params{N: 40}, Seed: 1}},
	{"uid", Job{Protocol: "uid", Params: Params{N: 30}, Seed: 1}},
	{"leaderless", Job{Protocol: "leaderless", Params: Params{N: 50}, Seed: 6, MaxSteps: 5000}},
	{"count-line", Job{Protocol: "count-line", Params: Params{N: 8}, Seed: 2}},
	{"square-knowing-n", Job{Protocol: "square-knowing-n", Params: Params{D: 3}, Seed: 3}},
	{"universal", Job{Protocol: "universal", Params: Params{D: 4}, Seed: 4}},
	{"parallel-3d", Job{Protocol: "parallel-3d", Params: Params{D: 3}, Seed: 1}},
	{"replication", Job{Protocol: "replication",
		Params: Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1})}, Seed: 5}},
	{"stabilize", Job{Protocol: "stabilize", Params: Params{Table: "line", N: 12}, Seed: 1}},
}

// envelopeBytes marshals a Result with the one non-deterministic field
// zeroed.
func envelopeBytes(t *testing.T, res Result) []byte {
	t.Helper()
	res.WallTime = 0
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotResumeGolden is the determinism guarantee of the snapshot
// subsystem, pinned for every registered protocol × engine pair:
//
//  1. run the job uninterrupted,
//  2. run it again with a Checkpoint hook, capturing a snapshot at the
//     first progress tick — at every tick for the sim engine, whose skip
//     bookkeeping a restore rebuilds from the configuration (the observed
//     run must produce byte-identical output — checkpointing is passive),
//  3. push each snapshot through its full durable form (Encode/Decode),
//  4. Resume it in a fresh world and compare the final Result JSON
//     byte-for-byte (wall time zeroed) against the uninterrupted run.
func TestSnapshotResumeGolden(t *testing.T) {
	ctx := context.Background()
	covered := make(map[string]bool)
	for _, g := range snapshotJobs {
		covered[g.job.Protocol] = true
		t.Run(g.name, func(t *testing.T) {
			base, err := Run(ctx, g.job)
			if err != nil {
				t.Fatal(err)
			}
			want := envelopeBytes(t, base)

			var frozen [][]byte
			var capturedAt []int64
			observed := g.job
			observed.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
				s, err := capture()
				if err != nil {
					t.Fatalf("capture at step %d: %v", steps, err)
				}
				if s.Steps != steps || s.Protocol != g.job.Protocol {
					t.Fatalf("snapshot identity drifted: %+v at step %d", s, steps)
				}
				if len(frozen) > 0 && s.Engine != string(EngineSim) {
					return
				}
				data, err := s.Encode()
				if err != nil {
					t.Fatal(err)
				}
				frozen = append(frozen, data)
				capturedAt = append(capturedAt, steps)
			}
			mid, err := Run(ctx, observed)
			if err != nil {
				t.Fatal(err)
			}
			if got := envelopeBytes(t, mid); !bytes.Equal(got, want) {
				t.Fatalf("checkpointing perturbed the run:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if len(frozen) == 0 {
				t.Fatalf("run finished (%d steps) without a checkpoint tick; pick a longer configuration", base.Steps)
			}
			if capturedAt[0] >= base.Steps {
				t.Fatalf("capture at step %d is not strictly mid-run (run has %d steps)", capturedAt[0], base.Steps)
			}

			for k, data := range frozen {
				decoded, err := snap.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(ctx, decoded)
				if err != nil {
					t.Fatal(err)
				}
				if got := envelopeBytes(t, resumed); !bytes.Equal(got, want) {
					t.Fatalf("resume-at-step-%d drifted from the uninterrupted run:\ngot:\n%s\nwant:\n%s",
						capturedAt[k], got, want)
				}
			}
		})
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("protocol %q has no snapshot job", name)
		}
	}
}

// TestResumeOlderUrnSnapshot pins that checkpoints written by an older
// build stay resumable under the same snap.Version. The committed
// snapshot is the golden urn job's fourth Progress-tick capture from a
// build whose urn memento still carried a CountSampler field; gob skips
// fields the receiving struct lacks, so the resumed run must finish with
// the golden Result bytes.
func TestResumeOlderUrnSnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "counting-upper-bound.urn.count-sampler.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("CountSampler")) {
		t.Fatal("snapshot no longer carries the dropped CountSampler field")
	}
	s, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "counting-upper-bound.urn.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(envelopeBytes(t, res), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("resumed older snapshot drifted from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestResumeRejectsBadSnapshots covers the resume validation paths.
func TestResumeRejectsBadSnapshots(t *testing.T) {
	ctx := context.Background()
	if _, err := Resume(ctx, nil); err == nil {
		t.Error("Resume accepted a nil snapshot")
	}
	if _, err := Resume(ctx, &snap.Snapshot{Job: []byte(`{"protocol":"nope"}`)}); err == nil {
		t.Error("Resume accepted an unknown protocol")
	}
	// A snapshot whose identity fields disagree with its embedded job.
	s := &snap.Snapshot{
		Protocol: "uid", Engine: "pop", Seed: 2,
		Job: []byte(`{"protocol":"uid","params":{"n":30},"seed":1}`),
	}
	if _, err := Resume(ctx, s); err == nil {
		t.Error("Resume accepted an identity mismatch")
	}
	// A well-formed identity with a corrupt engine state payload.
	s = &snap.Snapshot{
		Protocol: "uid", Engine: "pop", Seed: 1,
		Job:   []byte(`{"protocol":"uid","params":{"n":30},"seed":1}`),
		State: []byte("not a gob stream"),
	}
	if _, err := Resume(ctx, s); err == nil {
		t.Error("Resume accepted a corrupt engine state")
	}
}

// TestParamsShapeJSONRoundTrip pins the wire form of shape-carrying
// params: cells only for fully bonded shapes, explicit bonds otherwise.
func TestParamsShapeJSONRoundTrip(t *testing.T) {
	full := Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2})}
	data, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("shape_bonds")) {
		t.Fatalf("fully bonded shape serialized explicit bonds: %s", data)
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shape == nil || !back.Shape.Equal(full.Shape) {
		t.Fatalf("fully bonded shape did not round-trip: %s", data)
	}

	partial := grid.NewShape()
	for _, c := range []grid.Pos{{}, {X: 1}, {X: 1, Y: 1}, {Y: 1}} {
		partial.Add(c)
	}
	// A ring missing one bond: not the fully bonded form of its cells.
	mustBond := func(a, b grid.Pos) {
		t.Helper()
		if err := partial.Bond(a, b); err != nil {
			t.Fatal(err)
		}
	}
	mustBond(grid.Pos{}, grid.Pos{X: 1})
	mustBond(grid.Pos{X: 1}, grid.Pos{X: 1, Y: 1})
	mustBond(grid.Pos{X: 1, Y: 1}, grid.Pos{Y: 1})
	p := Params{Shape: partial}
	data, err = json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("shape_bonds")) {
		t.Fatalf("partially bonded shape lost its bond list: %s", data)
	}
	var back2 Params
	if err := json.Unmarshal(data, &back2); err != nil {
		t.Fatal(err)
	}
	if back2.Shape == nil || !back2.Shape.Equal(partial) {
		t.Fatal("partially bonded shape did not round-trip")
	}

	// Unknown fields are still rejected (the daemon's 400 contract).
	var strict Params
	if err := json.Unmarshal([]byte(`{"zzz": 1}`), &strict); err == nil {
		t.Error("params accepted an unknown field")
	}

	// Same cells, different bonds are different run identities: neither
	// the JSON form nor the cache key may collapse them.
	fullSquare := Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 1, Y: 1}, grid.Pos{Y: 1})}
	a := Job{Protocol: "replication", Params: fullSquare}
	b := Job{Protocol: "replication", Params: Params{Shape: partial}}
	if a.CacheKey() == b.CacheKey() {
		t.Error("cache key ignores the shape's bond set")
	}
}

// TestResumeRejectsCraftedEngineState replays crafted snapshots that
// reach an engine's restore through POST /v1/jobs/resume. The first two
// killed the daemon: each is a well-framed container whose engine state
// decodes but sizes an allocation from a field nothing checked, so the
// resume ended in a fatal out-of-memory error that no recover can catch —
// a stabilize memento claiming 1<<40 component slots, and a check memento
// whose NodeLen {MaxInt32, MaxInt32, 2} wrapped an int32 sum to the length
// of its empty slot columns. The pop and urn rows push a churn run's step
// count 2048 mean gaps past its fault clock: restore accepted any lag, and
// the first drain then delivered every missed event before the run could
// see a cancel. All must settle as resume errors.
func TestResumeRejectsCraftedEngineState(t *testing.T) {
	ctx := context.Background()
	churn := &sched.Profile{ArriveEvery: 1000, MaxChurn: 100_000}
	const lag = 2048 * 1000 // twice the restore bound, in the profile's mean gaps
	for _, tc := range []struct {
		name    string
		job     Job
		corrupt func(t *testing.T, state []byte) any
	}{
		{"stabilize", Job{Protocol: "stabilize", Params: Params{Table: "line", N: 16}, Seed: 1},
			func(t *testing.T, state []byte) any {
				var m sim.Memento[rules.State]
				if err := snap.DecodeState(state, &m); err != nil {
					t.Fatal(err)
				}
				m.NumSlots = 1 << 40
				return &m
			}},
		{"counting-upper-bound.check", Job{Protocol: "counting-upper-bound", Engine: EngineCheck, Params: Params{N: 60}, Seed: 1},
			func(t *testing.T, state []byte) any {
				var m check.Memento[counting.UBState]
				if err := snap.DecodeState(state, &m); err != nil {
					t.Fatal(err)
				}
				m.NodeLen = []int32{math.MaxInt32, math.MaxInt32, 2}
				m.SlotState, m.SlotClass, m.SlotCount = nil, nil, nil
				m.Parent = []int32{-1, 0, 1}
				m.ViaA, m.ViaB, m.ViaNA, m.ViaNB = make([]int32, 3), make([]int32, 3), make([]int32, 3), make([]int32, 3)
				m.Head = 0
				return m
			}},
		{"counting-upper-bound.pop.backlog", Job{Protocol: "counting-upper-bound", Params: Params{N: 60, Fault: churn}, Seed: 1, MaxSteps: 3_000_000},
			func(t *testing.T, state []byte) any {
				var m pop.Memento[counting.UBState]
				if err := snap.DecodeState(state, &m); err != nil {
					t.Fatal(err)
				}
				m.Steps += lag
				return &m
			}},
		{"counting-upper-bound.urn.backlog", Job{Protocol: "counting-upper-bound", Engine: EngineUrn, Params: Params{N: 1000, Fault: churn}, Seed: 1, MaxSteps: 100_000_000},
			func(t *testing.T, state []byte) any {
				var m urn.Memento[counting.UBState]
				if err := snap.DecodeState(state, &m); err != nil {
					t.Fatal(err)
				}
				m.Steps += lag
				return &m
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var frozen *snap.Snapshot
			observed := tc.job
			observed.Checkpoint = func(_ int64, capture func() (*snap.Snapshot, error)) {
				if frozen == nil {
					s, err := capture()
					if err != nil {
						t.Fatal(err)
					}
					frozen = s
				}
			}
			if _, err := Run(ctx, observed); err != nil {
				t.Fatal(err)
			}
			if frozen == nil {
				t.Fatal("run finished without a checkpoint tick")
			}
			state, err := snap.EncodeState(tc.corrupt(t, frozen.State))
			if err != nil {
				t.Fatal(err)
			}
			frozen.State = state
			data, err := frozen.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := snap.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(ctx, decoded); err == nil {
				t.Fatal("resume accepted the crafted engine state")
			}
		})
	}
}
