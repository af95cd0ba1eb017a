package sim

import (
	"testing"

	"shapesol/internal/sched"
)

// TestSimUniformStreamStability pins the exact Result of a fixed seed:
// the scheduler refactor must not move the default draw by a single RNG
// call, with or without a zero profile applied. The constants were
// recorded from the pre-refactor engine.
func TestSimUniformStreamStability(t *testing.T) {
	want := Result{Steps: 5_000, Effective: 5_000, Merges: 711, Splits: 688, Reason: ReasonMaxSteps}
	run := func(apply bool) Result {
		w := New(24, churnProtocol{}, Options{Seed: 0xC0FFEE, MaxSteps: 5_000})
		if apply {
			if err := w.ApplyProfile(sched.Profile{}); err != nil {
				t.Fatal(err)
			}
			if w.Agents() != nil {
				t.Fatal("zero profile installed a scheduler layer")
			}
		}
		return w.Run()
	}
	if got := run(false); got != want {
		t.Fatalf("bare run drifted: %+v, want %+v", got, want)
	}
	if got := run(true); got != want {
		t.Fatalf("zero-profile run drifted: %+v, want %+v", got, want)
	}
}

func TestSimApplyProfileRestrictions(t *testing.T) {
	if err := New(8, glueProtocol{}, Options{Seed: 1}).
		ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}); err == nil {
		t.Fatal("weighted accepted by the geometric engine")
	}
	stepped := New(8, glueProtocol{}, Options{Seed: 1})
	if _, err := stepped.Step(); err != nil {
		t.Fatal(err)
	}
	if err := stepped.ApplyProfile(sched.Profile{CrashEvery: 10}); err == nil {
		t.Fatal("profile accepted after stepping")
	}
	w := New(8, glueProtocol{}, Options{Seed: 1})
	if err := w.ApplyProfile(sched.Profile{CrashEvery: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyProfile(sched.Profile{CrashEvery: 10}); err == nil {
		t.Fatal("second profile accepted")
	}
}

// TestSimClusteredFullBiasBlocksMerging drives the clustered policy to
// its extreme: with BiasPct 100 the inter-component category weight drops
// to zero, so an all-singleton configuration has no permissible
// interaction at all and the run stops with ReasonNoInteraction.
func TestSimClusteredFullBiasBlocksMerging(t *testing.T) {
	w := New(12, glueProtocol{}, Options{Seed: 2, MaxSteps: 10_000})
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindClustered, BiasPct: 100}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != ReasonNoInteraction || res.Merges != 0 {
		t.Fatalf("%+v, want no-interaction with zero merges", res)
	}
	if w.NumComponents() != 12 {
		t.Fatalf("%d components, want 12 untouched singletons", w.NumComponents())
	}
}

// TestSimClusteredPartialBiasStillMerges checks the floor: any bias short
// of 100 leaves the inter category reachable, so aggregation completes.
func TestSimClusteredPartialBiasStillMerges(t *testing.T) {
	w := New(12, glueProtocol{}, Options{Seed: 3, MaxSteps: 500_000})
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindClustered, BiasPct: 99}); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.NumComponents() != 1 {
		t.Fatalf("%d components, want full aggregation", w.NumComponents())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimCrashVetoStopsVictims crashes all but one node: interactions
// proposed for crashed nodes are vetoed, so after the crashes no merge
// can happen and the run spends its budget on vetoed steps.
func TestSimCrashVetoStopsVictims(t *testing.T) {
	w := New(6, glueProtocol{}, Options{Seed: 4, MaxSteps: 20_000, CheckEvery: 1})
	if err := w.ApplyProfile(sched.Profile{CrashEvery: 1, MaxCrashes: 5}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != ReasonMaxSteps {
		t.Fatalf("%+v", res)
	}
	if w.Agents().Active() != 1 {
		t.Fatalf("active = %d, want 1", w.Agents().Active())
	}
	if res.Merges >= 5 {
		t.Fatalf("%d merges; crashes should have frozen aggregation early", res.Merges)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimAdversarialDelayCompletes runs the weakest fair scheduler over
// the churn protocol: progress must survive the starved-set vetoes.
func TestSimAdversarialDelayCompletes(t *testing.T) {
	w := New(16, churnProtocol{}, Options{Seed: 5, MaxSteps: 30_000})
	if err := w.ApplyProfile(sched.Profile{
		Scheduler: sched.KindAdversarialDelay, StarvePct: 25, FairnessBound: 128,
	}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != ReasonMaxSteps || res.Effective == 0 {
		t.Fatalf("%+v, want a full budget with progress", res)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimChurnGrowsAndShrinks checks arrivals append free nodes and
// departures remove free singletons, with the census and invariants
// intact. inertProtocol keeps everything singleton so every present node
// is a departure candidate.
func TestSimChurnGrowsAndShrinks(t *testing.T) {
	w := New(10, inertProtocol{}, Options{Seed: 6, MaxSteps: 10_000, CheckEvery: 16})
	if err := w.ApplyProfile(sched.Profile{ArriveEvery: 100, MaxChurn: 20}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != ReasonMaxSteps {
		t.Fatalf("%+v", res)
	}
	if w.Present() != 30 {
		t.Fatalf("present = %d, want 30 after 20 arrivals", w.Present())
	}
	if w.NumComponents() != 30 {
		t.Fatalf("%d components, want 30 singletons", w.NumComponents())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}

	w2 := New(10, inertProtocol{}, Options{Seed: 6, MaxSteps: 10_000, CheckEvery: 16})
	if err := w2.ApplyProfile(sched.Profile{DepartEvery: 100, MaxChurn: 6}); err != nil {
		t.Fatal(err)
	}
	w2.Run()
	if w2.Present() != 4 || w2.NumComponents() != 4 {
		t.Fatalf("present = %d, components = %d, want 4 after 6 departures",
			w2.Present(), w2.NumComponents())
	}
	if got := w2.CountStates(func(s string) string { return s })["q"]; got != 4 {
		t.Fatalf("CountStates sees %d nodes, want 4", got)
	}
	if err := w2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimFaultedSnapshotResumeIdentity captures a memento from inside a
// faulted adversarial run (via the Progress callback, the production
// capture point) and checks a restored world finishes byte-identically.
func TestSimFaultedSnapshotResumeIdentity(t *testing.T) {
	profile := sched.Profile{
		Scheduler: sched.KindAdversarialDelay, StarvePct: 25, FairnessBound: 256,
		CrashEvery: 700, RecoverEvery: 900,
		ArriveEvery: 800, DepartEvery: 1000, MaxChurn: 8,
	}
	opts := Options{Seed: 9, MaxSteps: 40_000, CheckEvery: 64}
	build := func() *World[int] {
		w := New(24, churnProtocol{}, opts)
		if err := w.ApplyProfile(profile); err != nil {
			t.Fatal(err)
		}
		return w
	}

	var m *Memento[int]
	base := build()
	calls := 0
	base.opts.Progress = func(int64) {
		calls++
		if calls == 5 {
			m = base.Memento()
		}
	}
	baseRes := base.Run()
	if m == nil {
		t.Fatal("run too short to capture a mid-flight memento")
	}
	if m.Sched == nil || !m.Sched.HasClock {
		t.Fatal("faulted memento dropped scheduler state")
	}

	resumed := build()
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); got != baseRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, got)
	}
	if resumed.Present() != base.Present() {
		t.Fatalf("present %d, want %d", resumed.Present(), base.Present())
	}
	if len(resumed.nodes) != len(base.nodes) {
		t.Fatalf("node table %d, want %d", len(resumed.nodes), len(base.nodes))
	}
	for id := range base.nodes {
		if resumed.nodes[id].state != base.nodes[id].state {
			t.Fatalf("node %d state %v, want %v", id, resumed.nodes[id].state, base.nodes[id].state)
		}
	}
	if err := resumed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimRestoreRejectsProfileMismatch(t *testing.T) {
	faulted := New(8, inertProtocol{}, Options{Seed: 1})
	if err := faulted.ApplyProfile(sched.Profile{CrashEvery: 50}); err != nil {
		t.Fatal(err)
	}
	m := faulted.Memento()

	bare := New(8, inertProtocol{}, Options{Seed: 1})
	if err := bare.RestoreMemento(m); err == nil {
		t.Fatal("faulted memento restored into profile-less world")
	}
	if err := faulted.RestoreMemento(bare.Memento()); err == nil {
		t.Fatal("profile-less memento restored into faulted world")
	}
}

// TestCheckCadenceAcrossFaultJumps pins the CheckEvery cadence where it
// is easiest to get wrong. Under a crash-and-churn profile, departures
// leave a single node, the scheduler runs dry, and Run jumps the step
// clock to the next fault event, skipping multiples of the period. The
// cadence must still fire on exactly the multiples the clock lands on,
// for a power-of-two period, for another one and for its negative (which
// fires on the same steps). The firing count and step sum were recorded
// from the engine that tested the cadence with a division per step. A run
// restored from a memento taken off the cadence must fire the same tail.
func TestCheckCadenceAcrossFaultJumps(t *testing.T) {
	profile := sched.Profile{
		CrashEvery: 300, RecoverEvery: 200,
		ArriveEvery: 700, DepartEvery: 400,
	}
	for _, tc := range []struct {
		period     int64
		fired, sum int64
		result     Result
	}{
		{64, 225, 5_008_704, Result{Steps: 39_804, Reason: ReasonNoInteraction}},
		{48, 297, 6_622_944, Result{Steps: 39_804, Reason: ReasonNoInteraction}},
		{-48, 297, 6_622_944, Result{Steps: 39_804, Reason: ReasonNoInteraction}},
	} {
		var fired []int64
		p := max(tc.period, -tc.period)
		build := func() *World[string] {
			w := New(2, inertProtocol{}, Options{Seed: 4, MaxSteps: 40_000, CheckEvery: tc.period,
				Progress: func(s int64) { fired = append(fired, s) }})
			if err := w.ApplyProfile(profile); err != nil {
				t.Fatal(err)
			}
			return w
		}
		base := build()
		stepN(t, base, 1000+int(p)/2)
		m := base.Memento()
		res := base.Run()
		baseFired := fired

		jumps, sum := 0, int64(0)
		for k, s := range baseFired {
			if s%tc.period != 0 {
				t.Fatalf("period %d: cadence fired at step %d", tc.period, s)
			}
			if k > 0 && s-baseFired[k-1] > p {
				jumps++ // only a fault-clock jump skips a multiple
			}
			sum += s
		}
		if jumps == 0 {
			t.Fatalf("period %d: no fault-clock jump skipped a multiple", tc.period)
		}
		if int64(len(baseFired)) != tc.fired || sum != tc.sum || res != tc.result {
			t.Errorf("period %d: fired %d times summing to %d with %+v; want %d, %d, %+v",
				tc.period, len(baseFired), sum, res, tc.fired, tc.sum, tc.result)
		}

		fired = nil
		resumed := build()
		if err := resumed.RestoreMemento(m); err != nil {
			t.Fatal(err)
		}
		if got := resumed.Run(); got != res {
			t.Fatalf("period %d: resumed %+v, want %+v", tc.period, got, res)
		}
		if len(fired) != len(baseFired) {
			t.Fatalf("period %d: resumed run fired %d times, want %d", tc.period, len(fired), len(baseFired))
		}
		for k := range fired {
			if fired[k] != baseFired[k] {
				t.Fatalf("period %d: resumed firing %d at step %d, want %d", tc.period, k, fired[k], baseFired[k])
			}
		}
	}
}
