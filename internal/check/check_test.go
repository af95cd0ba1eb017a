package check_test

import (
	"context"
	"reflect"
	"testing"

	"shapesol/internal/check"
	"shapesol/internal/obs"
	"shapesol/internal/sched"
)

// The toy protocols below are chosen so that each exploration verdict —
// halting, frozen deadlock, livelock, profile veto — is provable by hand,
// making the engine's exact claims checkable against pencil and paper.

// haltProto: any interaction involving a "start" agent converts both
// participants to "done". Every fair execution halts; the effective graph
// is a chain, so the worst case is also finite without fairness.
type haltProto struct{}

func (haltProto) InitialState(id, n int) string { return "start" }
func (haltProto) Apply(a, b string) (string, string, bool) {
	if a == "start" || b == "start" {
		return "done", "done", true
	}
	return a, b, false
}
func (haltProto) Halted(s string) bool { return s == "done" }

// blinkProto: the single rule (a, b) -> (b, a) swaps states forever. The
// multiset is invariant, so the swap is a self-loop of the quotient graph
// — the minimal livelock.
type blinkProto struct{}

func (blinkProto) InitialState(id, n int) string {
	if id == 0 {
		return "a"
	}
	return "b"
}
func (blinkProto) Apply(a, b string) (string, string, bool) {
	if (a == "a" && b == "b") || (a == "b" && b == "a") {
		return b, a, true
	}
	return a, b, false
}
func (blinkProto) Halted(string) bool { return false }

// deadProto: the single rule (a, b) -> (c, c) fires once and leaves a
// configuration of non-halted c agents with nothing left to do — a frozen
// deadlock one step from the root.
type deadProto struct{}

func (deadProto) InitialState(id, n int) string {
	if id == 0 {
		return "a"
	}
	return "b"
}
func (deadProto) Apply(a, b string) (string, string, bool) {
	if (a == "a" && b == "b") || (a == "b" && b == "a") {
		return "c", "c", true
	}
	return a, b, false
}
func (deadProto) Halted(string) bool { return false }

// vetoProto: the only effective rule pairs the two founding agents "a"
// and "b" (ids 0 and 1). Under the uniform scheduler the run halts in one
// step; starving the founding prefix vetoes exactly that pair, freezing
// the root.
type vetoProto struct{}

func (vetoProto) InitialState(id, n int) string {
	switch id {
	case 0:
		return "a"
	case 1:
		return "b"
	default:
		return "c"
	}
}
func (vetoProto) Apply(a, b string) (string, string, bool) {
	if (a == "a" && b == "b") || (a == "b" && b == "a") {
		return "done", "done", true
	}
	return a, b, false
}
func (vetoProto) Halted(s string) bool { return s == "done" }

func TestHaltingProtocolVerdict(t *testing.T) {
	e := check.New(4, haltProto{}, check.Options{})
	res := e.Run()
	if res.Reason != check.ReasonExplored {
		t.Fatalf("reason = %v, want explored", res.Reason)
	}
	// {4s} -> {2s,2d} -> {1s,3d} -> {4d}: four reachable configurations.
	if res.Configs != 4 || res.Expanded != 4 {
		t.Fatalf("configs/expanded = %d/%d, want 4/4", res.Configs, res.Expanded)
	}
	v := e.Verdict(nil)
	if !v.Complete || !v.Halts || !v.AllCorrect {
		t.Fatalf("verdict = %+v, want complete+halts+correct", v)
	}
	if v.HaltingConfigs != 1 {
		t.Fatalf("halting configs = %d, want 1", v.HaltingConfigs)
	}
	if !v.DepthBounded || v.MaxDepth != 3 {
		t.Fatalf("depth = bounded=%v max=%d, want bounded max=3", v.DepthBounded, v.MaxDepth)
	}
	if v.Witness != nil {
		t.Fatalf("unexpected witness %+v", v.Witness)
	}
}

func TestCorrectnessPredicate(t *testing.T) {
	e := check.New(4, haltProto{}, check.Options{})
	e.Run()
	// A predicate that rejects everything must flag the (single) halting
	// configuration and carry it as the witness.
	v := e.Verdict(func(states []string, counts []int64) bool { return false })
	if !v.Halts {
		t.Fatalf("halts = false, want true")
	}
	if v.AllCorrect || v.IncorrectConfigs != 1 {
		t.Fatalf("correctness = %v/%d, want false/1", v.AllCorrect, v.IncorrectConfigs)
	}
	if v.Witness == nil || v.Witness.Kind != check.WitnessIncorrectHalt {
		t.Fatalf("witness = %+v, want incorrect-halt", v.Witness)
	}
	if len(v.Witness.Prefix) == 0 || len(v.Witness.Cycle) != 0 {
		t.Fatalf("witness trace = %d prefix/%d cycle, want non-empty prefix, no cycle", len(v.Witness.Prefix), len(v.Witness.Cycle))
	}
	// The predicate receives the halting configuration: all-done.
	saw := false
	e.Verdict(func(states []string, counts []int64) bool {
		if len(states) == 1 && states[0] == "done" && counts[0] == 4 {
			saw = true
		}
		return true
	})
	if !saw {
		t.Fatalf("predicate never saw the all-done configuration")
	}
}

func TestLivelockWitness(t *testing.T) {
	e := check.New(2, blinkProto{}, check.Options{})
	res := e.Run()
	if res.Reason != check.ReasonExplored || res.Configs != 1 {
		t.Fatalf("result = %+v, want explored with 1 config", res)
	}
	v := e.Verdict(nil)
	if v.Halts {
		t.Fatalf("halts = true, want false (blinker never halts)")
	}
	w := v.Witness
	if w == nil || w.Kind != check.WitnessLivelock {
		t.Fatalf("witness = %+v, want livelock", w)
	}
	if len(w.Prefix) != 0 {
		t.Fatalf("prefix = %v, want empty (root is the livelock)", w.Prefix)
	}
	want := []check.TraceStep{{A: "a", B: "b", NA: "b", NB: "a"}}
	if !reflect.DeepEqual(w.Cycle, want) {
		t.Fatalf("cycle = %v, want %v", w.Cycle, want)
	}
	if v.DepthBounded {
		t.Fatalf("depth bounded on a cyclic graph")
	}
}

func TestFrozenWitness(t *testing.T) {
	e := check.New(2, deadProto{}, check.Options{})
	e.Run()
	v := e.Verdict(nil)
	if v.Halts {
		t.Fatalf("halts = true, want false (deadlock)")
	}
	w := v.Witness
	if w == nil || w.Kind != check.WitnessFrozen {
		t.Fatalf("witness = %+v, want frozen", w)
	}
	wantPrefix := []check.TraceStep{{A: "a", B: "b", NA: "c", NB: "c"}}
	if !reflect.DeepEqual(w.Prefix, wantPrefix) {
		t.Fatalf("prefix = %v, want %v", w.Prefix, wantPrefix)
	}
	if len(w.Cycle) != 0 {
		t.Fatalf("cycle = %v, want empty (frozen)", w.Cycle)
	}
	if !reflect.DeepEqual(w.Config, []string{"2x c"}) {
		t.Fatalf("config = %v, want [2x c]", w.Config)
	}
}

func TestAdversarialVetoFreezesRoot(t *testing.T) {
	// Uniform: (a, b) fires and the run halts.
	e := check.New(4, vetoProto{}, check.Options{StopWhenAnyHalted: true})
	e.Run()
	if v := e.Verdict(nil); !v.Halts {
		t.Fatalf("uniform verdict = %+v, want halts", v)
	}

	// Starve the founding half: ids 0 and 1 — exactly {a, b} — are both
	// starved, so the only effective pair is vetoed and the root freezes.
	e = check.New(4, vetoProto{}, check.Options{StopWhenAnyHalted: true})
	if err := e.ApplyProfile(sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 50}); err != nil {
		t.Fatalf("ApplyProfile: %v", err)
	}
	res := e.Run()
	if res.Configs != 1 {
		t.Fatalf("configs = %d, want 1 (vetoed root)", res.Configs)
	}
	v := e.Verdict(nil)
	if v.Halts {
		t.Fatalf("starved verdict halts, want frozen non-halt")
	}
	if v.Witness == nil || v.Witness.Kind != check.WitnessFrozen || len(v.Witness.Prefix) != 0 {
		t.Fatalf("witness = %+v, want frozen at the root", v.Witness)
	}
	// The starved slots are marked in the rendered configuration.
	found := false
	for _, line := range v.Witness.Config {
		if line == "1x a (starved)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("config %v does not mark the starved slot", v.Witness.Config)
	}
}

func TestApplyProfileRejections(t *testing.T) {
	e := check.New(4, haltProto{}, check.Options{})
	// Policies without fair-limit veto semantics are rejected.
	if err := e.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}); err == nil {
		t.Fatalf("weighted profile accepted")
	}
	// Fault clocks are probabilistic timelines; rejected too.
	if err := e.ApplyProfile(sched.Profile{CrashEvery: 10}); err == nil {
		t.Fatalf("fault-clock profile accepted")
	}
	// A zero profile is a no-op, allowed any time.
	if err := e.ApplyProfile(sched.Profile{}); err != nil {
		t.Fatalf("zero profile rejected: %v", err)
	}
	// A real profile cannot land after expansion started.
	e.Run()
	err := e.ApplyProfile(sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 50})
	if err == nil {
		t.Fatalf("profile accepted after the exploration ran")
	}
}

func TestMaxStatesBudget(t *testing.T) {
	e := check.New(64, haltProto{}, check.Options{MaxStates: 2})
	res := e.Run()
	if res.Reason != check.ReasonMaxStates {
		t.Fatalf("reason = %v, want max-states", res.Reason)
	}
	v := e.Verdict(nil)
	if v.Complete {
		t.Fatalf("budget-cut exploration claims completeness")
	}
	if v.Halts || v.Witness != nil {
		t.Fatalf("budget-cut exploration decided a claim: %+v", v)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := check.New(8, haltProto{}, check.Options{})
	if res := e.RunContext(ctx); res.Reason != check.ReasonCanceled {
		t.Fatalf("reason = %v, want canceled", res.Reason)
	}
}

func TestProgressCadence(t *testing.T) {
	var calls []int64
	e := check.New(16, haltProto{}, check.Options{
		CheckEvery: 2,
		Progress:   func(expanded int64) { calls = append(calls, expanded) },
	})
	res := e.Run()
	if res.Reason != check.ReasonExplored {
		t.Fatalf("reason = %v, want explored", res.Reason)
	}
	if len(calls) == 0 {
		t.Fatalf("progress never fired")
	}
	for i, c := range calls {
		if c%2 != 0 {
			t.Fatalf("progress call %d at %d, want multiples of CheckEvery", i, c)
		}
	}
}

// TestMetricsPublishDeltas: with a metrics sink attached, the BFS
// counters publish exactly the work done after SetMetrics — every
// expansion, and every discovery but the root, which New made — the run
// is counted once, and the frontier gauge returns to zero at the end.
func TestMetricsPublishDeltas(t *testing.T) {
	m := obs.NewEngineMetrics(obs.NewRegistry(), "check")
	e := check.New(16, haltProto{}, check.Options{CheckEvery: 2})
	e.SetMetrics(m)
	res := e.Run()
	if res.Reason != check.ReasonExplored {
		t.Fatalf("reason = %v, want explored", res.Reason)
	}
	if got := m.Expanded.Value(); got != res.Expanded {
		t.Fatalf("expanded counter %d, run expanded %d", got, res.Expanded)
	}
	if got := m.Discovered.Value(); got != res.Configs-1 {
		t.Fatalf("discovered counter %d, run discovered %d beyond the root", got, res.Configs-1)
	}
	if got := m.Runs.Value(); got != 1 {
		t.Fatalf("runs counter %d, want 1", got)
	}
	if got := m.Frontier.Value(); got != 0 {
		t.Fatalf("frontier gauge %v after the run, want 0", got)
	}
}
