package job

import (
	"context"
	"strings"
	"testing"
	"time"

	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/grid"
	"shapesol/internal/sched"
	"shapesol/internal/shapes"
)

func TestUnknownProtocol(t *testing.T) {
	_, err := Run(context.Background(), Job{Protocol: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v, want unknown-protocol error", err)
	}
	// The error advertises the registry, like the CLIs do.
	if !strings.Contains(err.Error(), "counting-upper-bound") {
		t.Fatalf("err = %v, want the protocol list in the message", err)
	}
}

func TestUnsupportedEngine(t *testing.T) {
	_, err := Run(context.Background(), Job{
		Protocol: "count-line", Engine: EngineUrn, Params: Params{N: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "does not run on engine") {
		t.Fatalf("err = %v, want unsupported-engine error", err)
	}
}

func TestMissingRequiredParam(t *testing.T) {
	_, err := Run(context.Background(), Job{Protocol: "counting-upper-bound"})
	if err == nil || !strings.Contains(err.Error(), `requires parameter "n"`) {
		t.Fatalf("err = %v, want missing-n error", err)
	}
	_, err = Run(context.Background(), Job{Protocol: "replication", Params: Params{Free: 4}})
	if err == nil || !strings.Contains(err.Error(), `requires parameter "shape"`) {
		t.Fatalf("err = %v, want missing-shape error", err)
	}
}

func TestExtraneousParamRejected(t *testing.T) {
	_, err := Run(context.Background(), Job{
		Protocol: "counting-upper-bound", Params: Params{N: 60, D: 3},
	})
	if err == nil || !strings.Contains(err.Error(), `does not take parameter "d"`) {
		t.Fatalf("err = %v, want extraneous-d error", err)
	}
	_, err = Run(context.Background(), Job{
		Protocol: "counting-upper-bound",
		Params:   Params{N: 60, Shape: grid.ShapeOf(grid.Pos{})},
	})
	if err == nil || !strings.Contains(err.Error(), `does not take parameter "shape"`) {
		t.Fatalf("err = %v, want extraneous-shape error", err)
	}
}

func TestOutOfRangeParamsRejected(t *testing.T) {
	// Out-of-range values must fail validation with an error, never reach
	// an engine panic (pop.New panics below n=2, makeslice on negatives).
	for name, j := range map[string]Job{
		"n=1 pop":      {Protocol: "counting-upper-bound", Params: Params{N: 1}},
		"negative n":   {Protocol: "counting-upper-bound", Params: Params{N: -5}},
		"negative d":   {Protocol: "square-knowing-n", Params: Params{D: -3}},
		"k=1 parallel": {Protocol: "parallel-3d", Params: Params{D: 3, K: 1}},
		"negative free": {Protocol: "replication",
			Params: Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}), Free: -1}},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Run(context.Background(), j)
			if err == nil || !strings.Contains(err.Error(), "want >=") {
				t.Fatalf("err = %v, want out-of-range error", err)
			}
		})
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	_, err := Run(context.Background(), Job{
		Protocol: "counting-upper-bound", Params: Params{N: 60}, MaxSteps: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "negative step budget") {
		t.Fatalf("err = %v, want negative-budget error", err)
	}
}

func TestParamDefaultsApplied(t *testing.T) {
	res, err := Run(context.Background(), Job{
		Protocol: "counting-upper-bound", Params: Params{N: 60}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Payload.(counting.UpperBoundOutcome)
	if out.B != 5 {
		t.Fatalf("b = %d, want the spec default 5", out.B)
	}
}

func TestEnvelopeMatchesPayload(t *testing.T) {
	res, err := Run(context.Background(), Job{
		Protocol: "counting-upper-bound", Params: Params{N: 60, B: 4}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Payload.(counting.UpperBoundOutcome)
	switch {
	case res.Protocol != "counting-upper-bound":
		t.Fatalf("protocol = %q", res.Protocol)
	case res.Engine != EnginePop:
		t.Fatalf("engine = %q, want the spec default %q", res.Engine, EnginePop)
	case res.Seed != 1:
		t.Fatalf("seed = %d", res.Seed)
	case !res.Halted || res.Reason != "halted":
		t.Fatalf("halted = %v, reason = %q, want a halting run", res.Halted, res.Reason)
	case res.Steps != out.Steps:
		t.Fatalf("envelope steps %d != payload steps %d", res.Steps, out.Steps)
	case res.WallTime <= 0:
		t.Fatalf("wall time %v, want > 0", res.WallTime)
	}
}

func TestBudgetFor(t *testing.T) {
	spec, ok := Get("counting-upper-bound")
	if !ok {
		t.Fatal("counting-upper-bound not registered")
	}
	if got := spec.BudgetFor(EnginePop); got != 100_000_000 {
		t.Fatalf("pop budget = %d, want 100M", got)
	}
	if got := spec.BudgetFor(EngineUrn); got != 1<<62 {
		t.Fatalf("urn budget = %d, want 1<<62", got)
	}
}

func TestAllProtocolsRegistered(t *testing.T) {
	want := []string{
		"count-line", "counting-upper-bound", "leaderless", "parallel-3d",
		"replication", "simple-uid", "square-knowing-n", "stabilize",
		"uid", "universal",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
}

func TestRunCanceledAtEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Job{
		Protocol: "counting-upper-bound", Params: Params{N: 1000}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonCanceled {
		t.Fatalf("reason = %q, want %q", res.Reason, ReasonCanceled)
	}
	if res.Halted {
		t.Fatal("halted under a canceled context")
	}
	if res.Steps != 0 {
		t.Fatalf("steps = %d, want 0", res.Steps)
	}
}

// TestRunCancelStopsUrnAtScale is the acceptance check of the redesign's
// cancellation path: an n = 10^6 Counting-Upper-Bound run on the urn
// engine simulates ~10^13 scheduler steps; canceling the context from the
// first progress callback must stop it within one CheckEvery window of
// effective interactions instead of running to completion.
func TestRunCancelStopsUrnAtScale(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progressCalls int
	res, err := Run(ctx, Job{
		Protocol: "counting-upper-bound",
		Engine:   EngineUrn,
		Params:   Params{N: 1_000_000},
		Seed:     1,
		Progress: func(int64) { progressCalls++; cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonCanceled {
		t.Fatalf("reason = %q, want %q", res.Reason, ReasonCanceled)
	}
	if res.Halted {
		t.Fatal("halted despite cancellation")
	}
	if progressCalls != 1 {
		t.Fatalf("progress fired %d times after cancellation, want exactly 1", progressCalls)
	}
	// A full run records ~2n effective interactions; stopping within one
	// CheckEvery window (256 effective) leaves the leader's count far from
	// complete.
	out := res.Payload.(counting.UpperBoundOutcome)
	if out.R0 != 0 {
		t.Fatalf("r0 = %d, want 0 (payload of an unconverged run)", out.R0)
	}
}

// TestRunCancelStopsChurnedUrn: under a fault clock the urn ends a block at
// every fault event, so with an arrival on every step a block can end with
// no effective interaction, and a cancel polled only on the effective
// cadence may never be seen. A deadline must stop the run within a second.
func TestRunCancelStopsChurnedUrn(t *testing.T) {
	const deadline = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(ctx, Job{
			Protocol: "counting-upper-bound",
			Engine:   EngineUrn,
			Params:   Params{N: 1000, Fault: &sched.Profile{ArriveEvery: 1}},
			Seed:     1,
		})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Reason != ReasonCanceled {
			t.Fatalf("reason = %q, want %q", o.res.Reason, ReasonCanceled)
		}
	case <-time.After(deadline + time.Second):
		t.Fatal("Run did not return within a second of its deadline")
	}
}

func TestNormalizeResolvesDefaults(t *testing.T) {
	j, spec, err := Normalize(Job{Protocol: "counting-upper-bound", Params: Params{N: 60}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || spec.Name != "counting-upper-bound" {
		t.Fatalf("spec = %v, want counting-upper-bound", spec)
	}
	if j.Engine != EnginePop {
		t.Fatalf("engine = %q, want the spec default %q", j.Engine, EnginePop)
	}
	if j.MaxSteps != 100_000_000 {
		t.Fatalf("budget = %d, want the spec default 100M", j.MaxSteps)
	}
	if j.Params.B != 5 {
		t.Fatalf("b = %d, want the spec default 5", j.Params.B)
	}
}

func TestNormalizeRejectsWithoutRunning(t *testing.T) {
	for name, j := range map[string]Job{
		"unknown protocol": {Protocol: "nope"},
		"bad engine":       {Protocol: "count-line", Engine: EngineUrn, Params: Params{N: 8}},
		"missing n":        {Protocol: "counting-upper-bound"},
		"extraneous d":     {Protocol: "counting-upper-bound", Params: Params{N: 60, D: 3}},
		"negative budget":  {Protocol: "counting-upper-bound", Params: Params{N: 60}, MaxSteps: -1},
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Normalize(j); err == nil {
				t.Fatal("Normalize accepted an invalid job")
			}
		})
	}
}

// TestCacheKeyIdentity pins the contract the server's result cache relies
// on: two submissions that normalize to the same execution share a key,
// and every outcome-determining field separates keys.
func TestCacheKeyIdentity(t *testing.T) {
	norm := func(j Job) Job {
		t.Helper()
		nj, _, err := Normalize(j)
		if err != nil {
			t.Fatal(err)
		}
		return nj
	}
	base := Job{Protocol: "counting-upper-bound", Params: Params{N: 60}, Seed: 1}
	explicit := Job{Protocol: "counting-upper-bound", Engine: EnginePop,
		Params: Params{N: 60, B: 5}, Seed: 1, MaxSteps: 100_000_000}
	if norm(base).CacheKey() != norm(explicit).CacheKey() {
		t.Fatal("defaulted and explicit forms of the same job have different keys")
	}
	for name, other := range map[string]Job{
		"seed":     {Protocol: "counting-upper-bound", Params: Params{N: 60}, Seed: 2},
		"n":        {Protocol: "counting-upper-bound", Params: Params{N: 61}, Seed: 1},
		"b":        {Protocol: "counting-upper-bound", Params: Params{N: 60, B: 6}, Seed: 1},
		"engine":   {Protocol: "counting-upper-bound", Engine: EngineUrn, Params: Params{N: 60}, Seed: 1},
		"budget":   {Protocol: "counting-upper-bound", Params: Params{N: 60}, Seed: 1, MaxSteps: 5000},
		"protocol": {Protocol: "uid", Params: Params{N: 60}, Seed: 1},
	} {
		t.Run(name, func(t *testing.T) {
			if norm(base).CacheKey() == norm(other).CacheKey() {
				t.Fatalf("job differing in %s collides with the base key", name)
			}
		})
	}
}

// TestCacheKeyShape checks that by-reference shapes participate in the
// key: equal cell sets (in any insertion order) agree, different cell
// sets differ.
func TestCacheKeyShape(t *testing.T) {
	mk := func(cells ...grid.Pos) Job {
		j, _, err := Normalize(Job{Protocol: "replication",
			Params: Params{Shape: grid.ShapeOf(cells...)}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a := mk(grid.Pos{}, grid.Pos{X: 1})
	b := mk(grid.Pos{X: 1}, grid.Pos{})
	c := mk(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2})
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("cell insertion order changed the key")
	}
	if a.CacheKey() == c.CacheKey() {
		t.Fatal("different shapes collide")
	}
}

// TestUniversalD1 pins the universal spec's trivial case, which the spec
// answers without building a world: the 1x1 square has no bonded pair to
// schedule, so every language halts at step 0 with its one pixel decided,
// and a fault profile, having no scheduler to perturb, is rejected.
func TestUniversalD1(t *testing.T) {
	ctx := context.Background()
	for _, lang := range shapes.All() {
		res, err := Run(ctx, Job{Protocol: "universal", Params: Params{D: 1, Lang: lang.Name()}, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", lang.Name(), err)
		}
		out := res.Payload.(core.UniversalOutcome)
		want := core.UniversalOutcome{D: 1, Halted: true, Match: true, Waste: shapes.Render(lang, 1).Waste()}
		if out != want || !res.Halted || res.Steps != 0 || res.Reason != "halted" {
			t.Errorf("%s: outcome %+v (halted=%v steps=%d reason=%q), want %+v halted at step 0",
				lang.Name(), out, res.Halted, res.Steps, res.Reason, want)
		}
	}
	_, err := Run(ctx, Job{Protocol: "universal", Params: Params{D: 1, Fault: &sched.Profile{CrashEvery: 100}}})
	if err == nil || !strings.Contains(err.Error(), "no scheduler") {
		t.Fatalf("err = %v, want the d=1 fault-profile rejection", err)
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	for name, spec := range map[string]Spec{
		"empty name": {Run: func(context.Context, Job) (Outcome, error) { return Outcome{}, nil }, Engines: []Engine{EnginePop}},
		"nil run":    {Name: "x", Engines: []Engine{EnginePop}},
		"no engines": {Name: "x", Run: func(context.Context, Job) (Outcome, error) { return Outcome{}, nil }},
		"duplicate":  {Name: "dup", Run: func(context.Context, Job) (Outcome, error) { return Outcome{}, nil }, Engines: []Engine{EnginePop}},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			if name == "duplicate" {
				r.Register(spec)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("Register accepted an invalid spec")
				}
			}()
			r.Register(spec)
		})
	}
}
