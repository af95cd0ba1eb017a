package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// TestFaultParamsJSONRoundTrip pins the wire form of fault-carrying
// params: the profile travels as a nested "fault" object, strictly decoded
// so unknown fault fields 400 like unknown parameters.
func TestFaultParamsJSONRoundTrip(t *testing.T) {
	p := Params{N: 100, Fault: &sched.Profile{
		Scheduler: sched.KindWeighted, Rates: []int64{1, 3}, CrashEvery: 500,
	}}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"fault"`)) {
		t.Fatalf("fault profile missing from wire form: %s", data)
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fault == nil || back.Fault.Scheduler != sched.KindWeighted ||
		len(back.Fault.Rates) != 2 || back.Fault.CrashEvery != 500 {
		t.Fatalf("fault profile did not round-trip: %+v", back.Fault)
	}

	// A profile-less Params must not serialize an empty fault object: nil
	// and absent are the same (uniform, no faults) identity.
	data, err = json.Marshal(Params{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("fault")) {
		t.Fatalf("profile-less params serialized a fault field: %s", data)
	}

	// Unknown fields inside the fault object are rejected: the strict
	// decoder reaches into the nested profile.
	var strict Params
	if err := json.Unmarshal([]byte(`{"n": 10, "fault": {"zzz": 1}}`), &strict); err == nil {
		t.Error("params accepted an unknown fault field")
	}
}

// TestNormalizeFaultProfile covers the admission-time resolution: defaults
// filled, zero profiles collapsed to nil, engine-matrix violations
// rejected with field-level errors.
func TestNormalizeFaultProfile(t *testing.T) {
	// Defaults fill in against the resolved engine.
	j, _, err := Normalize(Job{Protocol: "counting-upper-bound",
		Params: Params{N: 50, Fault: &sched.Profile{Scheduler: sched.KindClustered}}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Params.Fault == nil || j.Params.Fault.BlockSize != 32 || j.Params.Fault.BiasPct != 75 {
		t.Fatalf("clustered defaults not applied: %+v", j.Params.Fault)
	}

	// A zero profile collapses to nil: same cache identity, same RNG
	// stream as a profile-less job.
	j, _, err = Normalize(Job{Protocol: "counting-upper-bound",
		Params: Params{N: 50, Fault: &sched.Profile{}}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Params.Fault != nil {
		t.Fatalf("zero profile survived normalization: %+v", j.Params.Fault)
	}
	plain, _, err := Normalize(Job{Protocol: "counting-upper-bound", Params: Params{N: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheKey() != plain.CacheKey() {
		t.Fatalf("zero-profile key %q differs from profile-less %q", j.CacheKey(), plain.CacheKey())
	}

	// The scheduler support matrix is enforced per resolved engine, and
	// the error carries field-level details for the API layers.
	_, _, err = Normalize(Job{Protocol: "stabilize",
		Params: Params{Table: "line", N: 10,
			Fault: &sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}}})
	if err == nil {
		t.Fatal("weighted accepted on the sim engine")
	}
	var ve *sched.ValidationError
	if !errors.As(err, &ve) || len(ve.Fields) == 0 {
		t.Fatalf("error %v does not carry field-level details", err)
	}
	if ve.Fields[0].Field != "scheduler" {
		t.Fatalf("unexpected offending field: %+v", ve.Fields)
	}

	// Clustered is id-based and rejected on the urn engine.
	_, _, err = Normalize(Job{Protocol: "counting-upper-bound", Engine: EngineUrn,
		Params: Params{N: 50, Fault: &sched.Profile{Scheduler: sched.KindClustered}}})
	if !errors.As(err, &ve) {
		t.Fatalf("clustered on urn: got %v, want a validation error", err)
	}

	// Specs without a fault field reject the parameter outright.
	r := NewRegistry()
	r.Register(Spec{
		Name: "no-fault", Engines: []Engine{EnginePop}, Budget: 1,
		Params: []Field{{Name: "n", Required: true, Min: 2}},
		Run: func(context.Context, Job) (Outcome, error) {
			return Outcome{}, nil
		},
	})
	if _, _, err := r.Normalize(Job{Protocol: "no-fault",
		Params: Params{N: 5, Fault: &sched.Profile{CrashEvery: 10}}}); err == nil {
		t.Error("spec without a fault field accepted a profile")
	}
}

// TestCacheKeyFault pins the fault fragment of the cache key: distinct
// profiles are distinct run identities, equivalent spellings are one.
func TestCacheKeyFault(t *testing.T) {
	norm := func(f *sched.Profile) Job {
		t.Helper()
		j, _, err := Normalize(Job{Protocol: "counting-upper-bound",
			Params: Params{N: 50, Fault: f}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	plain := norm(nil)
	crashed := norm(&sched.Profile{CrashEvery: 100})
	if plain.CacheKey() == crashed.CacheKey() {
		t.Error("cache key ignores the fault profile")
	}
	// Explicit defaults and implied defaults normalize to one identity.
	a := norm(&sched.Profile{Scheduler: sched.KindClustered})
	b := norm(&sched.Profile{Scheduler: sched.KindClustered, BlockSize: 32, BiasPct: 75})
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("equivalent profiles got distinct keys:\n%q\n%q", a.CacheKey(), b.CacheKey())
	}
}

// TestCacheKeyRates pins the weighted scheduler's rates in the key: the
// same rates normalized twice agree, and the same rates in another order
// (another agent gets each rate) are another run identity.
func TestCacheKeyRates(t *testing.T) {
	key := func(rates ...int64) string {
		t.Helper()
		j, _, err := Normalize(Job{Protocol: "counting-upper-bound",
			Params: Params{N: 10, Fault: &sched.Profile{
				Scheduler: sched.KindWeighted, Rates: rates, CrashEvery: 100,
			}}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return j.CacheKey()
	}
	if a, b := key(1, 3), key(1, 3); a != b {
		t.Fatalf("equal profiles render different keys:\n%s\n%s", a, b)
	}
	if a, c := key(1, 3), key(3, 1); a == c {
		t.Fatalf("different rates render the same key: %s", a)
	}
}

// faultedSnapshotJobs is one faulted configuration per engine, each
// crossing at least one checkpoint tick strictly before finishing.
var faultedSnapshotJobs = []struct {
	name string
	job  Job
}{
	{"pop.crash-freeze", Job{Protocol: "counting-upper-bound",
		Params: Params{N: 80, B: 4, Fault: &sched.Profile{
			CrashEvery: 500, MaxCrashes: 10, RecoverEvery: 900,
			FreezeEvery: 700, ThawEvery: 1100,
		}},
		Seed: 11, MaxSteps: 60_000}},
	// The acceptance-scale run: a weighted, crash-recovery urn execution at
	// n = 10^6 (trillions of scheduler steps, skipped in blocks) must
	// snapshot and resume byte-identically.
	{"urn.weighted-crash-1M", Job{Protocol: "counting-upper-bound", Engine: EngineUrn,
		Params: Params{N: 1_000_000, Fault: &sched.Profile{
			Scheduler: sched.KindWeighted, Rates: []int64{1, 3},
			CrashEvery: 200_000_000, MaxCrashes: 40, RecoverEvery: 1_000_000_000,
		}},
		Seed: 7}},
	// Departures can make the spanning-line predicate unreachable, so the
	// budget is capped: the identity under test is the trajectory, not
	// termination.
	{"sim.adversarial-churn", Job{Protocol: "stabilize",
		Params: Params{Table: "line", N: 12, Fault: &sched.Profile{
			Scheduler: sched.KindAdversarialDelay, StarvePct: 20, FairnessBound: 256,
			ArriveEvery: 500, DepartEvery: 700, MaxChurn: 6,
		}},
		Seed: 1, MaxSteps: 200_000}},
}

// TestSnapshotResumeFaultedGolden is TestSnapshotResumeGolden for faulted
// runs: the scheduler layer's state (pools, fault clock, policy cursors)
// must ride the snapshot so a resumed run replays the same fault timeline
// and finishes with a byte-identical Result envelope. The fault events the
// resumed run publishes are its own: with those published before the
// capture, they add up to the uninterrupted run's.
func TestSnapshotResumeFaultedGolden(t *testing.T) {
	ctx := context.Background()
	metered := func(j Job) Job {
		j.Metrics = obs.NewEngineMetrics(obs.NewRegistry(), string(j.Engine))
		return j
	}
	for _, g := range faultedSnapshotJobs {
		t.Run(g.name, func(t *testing.T) {
			whole := metered(g.job)
			base, err := Run(ctx, whole)
			if err != nil {
				t.Fatal(err)
			}
			want := envelopeBytes(t, base)

			var frozen []byte
			var capturedAt, eventsBefore int64
			observed := metered(g.job)
			observed.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
				if frozen != nil {
					return
				}
				eventsBefore = observed.Metrics.FaultEvents.Value()
				s, err := capture()
				if err != nil {
					t.Fatalf("capture at step %d: %v", steps, err)
				}
				data, err := s.Encode()
				if err != nil {
					t.Fatal(err)
				}
				frozen = data
				capturedAt = steps
			}
			mid, err := Run(ctx, observed)
			if err != nil {
				t.Fatal(err)
			}
			if got := envelopeBytes(t, mid); !bytes.Equal(got, want) {
				t.Fatalf("checkpointing perturbed the faulted run:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if frozen == nil {
				t.Fatalf("run finished (%d steps) without a checkpoint tick", base.Steps)
			}
			if capturedAt >= base.Steps {
				t.Fatalf("capture at step %d is not strictly mid-run (%d steps)", capturedAt, base.Steps)
			}

			decoded, err := snap.Decode(frozen)
			if err != nil {
				t.Fatal(err)
			}
			rj, spec, err := Default.ResumeJob(decoded)
			if err != nil {
				t.Fatal(err)
			}
			rj = metered(rj)
			resumed, err := RunNormalized(ctx, rj, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := envelopeBytes(t, resumed); !bytes.Equal(got, want) {
				t.Fatalf("faulted resume-at-step-%d drifted:\ngot:\n%s\nwant:\n%s",
					capturedAt, got, want)
			}
			total, after := whole.Metrics.FaultEvents.Value(), rj.Metrics.FaultEvents.Value()
			if total == 0 || eventsBefore+after != total {
				t.Fatalf("fault events: %d before the capture + %d resumed, want %d in all (> 0)",
					eventsBefore, after, total)
			}
		})
	}
}

// TestFaultedRunReportsNonHalting pins the E17 mechanism end to end at job
// level: crash all but one agent before the counting leader can finish its
// census and halting becomes impossible — whoever survives has nobody left
// to interact with. The run must surface Halted: false with the engine's
// max-steps reason instead of wedging or lying.
func TestFaultedRunReportsNonHalting(t *testing.T) {
	res, err := Run(context.Background(), Job{
		Protocol: "counting-upper-bound",
		Params: Params{N: 50, Fault: &sched.Profile{
			CrashEvery: 1, MaxCrashes: 49,
		}},
		Seed: 3, MaxSteps: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatalf("crash-stopped population reported halting: %+v", res)
	}
	if res.Reason != "max-steps" {
		t.Fatalf("reason %q, want max-steps", res.Reason)
	}
}
