package urn

import (
	"testing"

	"shapesol/internal/pop"
	"shapesol/internal/sched"
)

// checkSchedInvariants asserts the profiled world's derived mass totals
// and census agree with its slot tables — the bookkeeping every weighted
// draw and every skip denominator depends on.
func checkSchedInvariants(t *testing.T, w *World[int]) {
	t.Helper()
	var sumT, sumS2, inUrn int64
	for _, slot := range w.live {
		c, m := w.counts[slot], w.mult[slot]
		inUrn += c
		sumT += m * c
		sumS2 += m * m * c
	}
	if w.sumT != sumT || w.sumS2 != sumS2 {
		t.Fatalf("mass totals T=%d S2=%d, tables imply %d, %d", w.sumT, w.sumS2, sumT, sumS2)
	}
	if w.inUrn != inUrn {
		t.Fatalf("inUrn census %d, counts sum to %d", w.inUrn, inUrn)
	}
	if want := w.inUrn + int64(len(w.crashed)) + int64(len(w.frozen)); w.present != want {
		t.Fatalf("present %d, urn+pools hold %d", w.present, want)
	}
}

// TestUrnUniformStreamStability pins the exact Result of a fixed seed:
// the scheduler refactor must not move the default draw by a single RNG
// call, with or without a zero profile. The constants were recorded from
// the pre-refactor engine.
func TestUrnUniformStreamStability(t *testing.T) {
	want := Result{Steps: 148, Effective: 1, Skipped: 147, Reason: pop.ReasonHalted}
	for _, apply := range []bool{false, true} {
		w := New(64, haltOnMeet{}, pop.Options{Seed: 0xC0FFEE, StopWhenAnyHalted: true})
		if apply {
			if err := w.ApplyProfile(sched.Profile{}); err != nil {
				t.Fatal(err)
			}
			if w.profiled {
				t.Fatal("zero profile installed a scheduler layer")
			}
		}
		if got := w.Run(); got != want {
			t.Fatalf("profile=%v drifted: %+v, want %+v", apply, got, want)
		}
	}
}

func TestUrnApplyProfileRestrictions(t *testing.T) {
	if err := New(8, colorProto{ones: 4}, pop.Options{Seed: 1}).
		ApplyProfile(sched.Profile{Scheduler: sched.KindClustered}); err == nil {
		t.Fatal("clustered accepted by the compressed engine")
	}
	if err := New(8, colorProto{ones: 4}, pop.Options{Seed: 1}).
		ApplyProfile(sched.Profile{Scheduler: sched.KindAdversarialDelay}); err == nil {
		t.Fatal("adversarial-delay accepted by the compressed engine")
	}
	w := New(8, colorProto{ones: 4}, pop.Options{Seed: 1})
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}); err == nil {
		t.Fatal("second profile accepted")
	}
	stepped := New(8, colorProto{ones: 4}, pop.Options{Seed: 1})
	advance(stepped, 1)
	if err := stepped.ApplyProfile(sched.Profile{CrashEvery: 10}); err == nil {
		t.Fatal("profile accepted after stepping")
	}
}

// TestUrnWeightedTotals checks the weighted mass algebra against hand
// computation: colorProto{ones: 5} on n=10 puts state 1 first in
// appearance order (rate 3) and state 0 second (rate 1), so the cross
// pair weighs 5·5·3·1 = 75 and all pairs (T²−S2)/2 = (20²−50)/2 = 175.
func TestUrnWeightedTotals(t *testing.T) {
	w := New(10, colorProto{ones: 5}, pop.Options{Seed: 2})
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{3, 1}}); err != nil {
		t.Fatal(err)
	}
	if got := w.ResponsiveWeight(); got != 75 {
		t.Fatalf("responsive weight %d, want 75", got)
	}
	if got := w.allPairs(); got != 175 {
		t.Fatalf("all pairs %d, want 175", got)
	}
	checkSchedInvariants(t, w)
	if !advance(w, 500) {
		t.Fatal("budget exhausted")
	}
	checkSchedInvariants(t, w)
}

// TestUrnWeightedInvariantsUnderSlotChurn runs the weighted layer over
// tokenProto, whose token state allocates and frees a slot on every
// effective interaction: recycled slots must re-enter the rate-class
// assignment without corrupting the mass totals.
func TestUrnWeightedInvariantsUnderSlotChurn(t *testing.T) {
	w := New(200, tokenProto{k: 6, cycle: 40}, pop.Options{Seed: 3, MaxSteps: 200_000})
	if err := w.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != pop.ReasonMaxSteps {
		t.Fatalf("%+v", res)
	}
	checkSchedInvariants(t, w)
	if w.Present() != 200 {
		t.Fatalf("present %d, want 200 without faults", w.Present())
	}
}

// TestUrnFaultConservation runs every fault lane at once and checks the
// population ledger balances afterwards: present = urn + pools, arrivals
// and departures bounded by the churn budget.
func TestUrnFaultConservation(t *testing.T) {
	w := New(40, colorProto{ones: 20}, pop.Options{Seed: 5, MaxSteps: 100_000, CheckEvery: 16})
	if err := w.ApplyProfile(sched.Profile{
		CrashEvery: 200, RecoverEvery: 400,
		FreezeEvery: 300, ThawEvery: 500,
		ArriveEvery: 250, DepartEvery: 350, MaxChurn: 10,
	}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != pop.ReasonMaxSteps {
		t.Fatalf("%+v", res)
	}
	checkSchedInvariants(t, w)
	if w.Present() < 40-10 || w.Present() > 40+10 {
		t.Fatalf("present %d outside churn budget around 40", w.Present())
	}
	if w.N() != 40 {
		t.Fatalf("founding N changed to %d", w.N())
	}
	if got := w.CountWhere(func(int) bool { return true }); got != w.inUrn {
		t.Fatalf("CountWhere sees %d agents, urn holds %d", got, w.inUrn)
	}
}

// TestUrnCrashStarvesResponsiveWeight crashes agents until no responsive
// pair can remain; the run must fast-forward between fault events to its
// budget instead of spinning or halting.
func TestUrnCrashStarvesResponsiveWeight(t *testing.T) {
	w := New(4, colorProto{ones: 2}, pop.Options{Seed: 6, MaxSteps: 50_000, CheckEvery: 4})
	if err := w.ApplyProfile(sched.Profile{CrashEvery: 1, MaxCrashes: 3}); err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Reason != pop.ReasonMaxSteps || res.Steps != 50_000 {
		t.Fatalf("%+v, want max-steps at 50000", res)
	}
	if w.inUrn != 1 || len(w.crashed) != 3 {
		t.Fatalf("urn %d / crashed %d, want 1 / 3", w.inUrn, len(w.crashed))
	}
	if w.Present() != 4 {
		t.Fatalf("present %d, want 4 (crash-stop keeps agents present)", w.Present())
	}
}

// TestUrnFaultedSnapshotResumeIdentity captures a memento from inside a
// faulted weighted run (via the Progress callback, the production capture
// point) and checks a restored world finishes byte-identically: result,
// per-state counts, census and fault pools.
func TestUrnFaultedSnapshotResumeIdentity(t *testing.T) {
	profile := sched.Profile{
		Scheduler: sched.KindWeighted, Rates: []int64{1, 4, 2},
		CrashEvery: 600, RecoverEvery: 900,
		ArriveEvery: 700, DepartEvery: 800, MaxChurn: 15,
	}
	opts := pop.Options{Seed: 9, MaxSteps: 300_000, CheckEvery: 64}
	build := func() *World[int] {
		w := New(150, tokenProto{k: 6, cycle: 40}, opts)
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
	checkSchedInvariants(t, resumed)
	if got := resumed.Run(); got != baseRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, got)
	}
	if resumed.Present() != base.Present() {
		t.Fatalf("present %d, want %d", resumed.Present(), base.Present())
	}
	if len(resumed.crashed) != len(base.crashed) || len(resumed.frozen) != len(base.frozen) {
		t.Fatalf("pools %d/%d, want %d/%d",
			len(resumed.crashed), len(resumed.frozen), len(base.crashed), len(base.frozen))
	}
	base.ForEach(func(s int, count int64) {
		if got := resumed.Count(s); got != count {
			t.Fatalf("state %d count %d, want %d", s, got, count)
		}
	})
	checkSchedInvariants(t, base)
	checkSchedInvariants(t, resumed)
}

func TestUrnRestoreRejectsProfileMismatch(t *testing.T) {
	faulted := New(20, colorProto{ones: 10}, pop.Options{Seed: 1})
	if err := faulted.ApplyProfile(sched.Profile{CrashEvery: 50}); err != nil {
		t.Fatal(err)
	}
	m := faulted.Memento()

	bare := New(20, colorProto{ones: 10}, pop.Options{Seed: 1})
	if err := bare.RestoreMemento(m); err == nil {
		t.Fatal("faulted memento restored into profile-less world")
	}
	if err := faulted.RestoreMemento(bare.Memento()); err == nil {
		t.Fatal("profile-less memento restored into faulted world")
	}

	weighted := New(20, colorProto{ones: 10}, pop.Options{Seed: 1})
	if err := weighted.ApplyProfile(sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := weighted.RestoreMemento(m); err == nil {
		t.Fatal("clocked memento restored into clock-less weighted world")
	}
}
