package urn

import (
	"testing"

	"shapesol/internal/pop"
)

// TestSnapshotResumeIdentical: capture a memento mid-run (after slot
// churn has exercised the recycling stacks), finish the run, restore the
// memento into a fresh world and finish that — the two runs must agree on
// every observable. tokenProto churns distinct states continuously, so
// the slot/pair recycling layout is nontrivial at capture time.
func TestSnapshotResumeIdentical(t *testing.T) {
	opts := pop.Options{Seed: 11, MaxSteps: 20_000_000}
	base := New(500, tokenProto{k: 6, cycle: 40}, opts)
	if !advance(base, 3_000) {
		t.Fatal("budget exhausted during warm-up")
	}
	m := base.Memento()
	baseRes := base.Run()

	resumed := New(500, tokenProto{k: 6, cycle: 40}, opts)
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if resumed.Steps() > baseRes.Steps {
		t.Fatalf("restored clock %d beyond the finished run's %d", resumed.Steps(), baseRes.Steps)
	}
	resumedRes := resumed.Run()
	if baseRes != resumedRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, resumedRes)
	}
	base.ForEach(func(s int, count int64) {
		if got := resumed.Count(s); got != count {
			t.Fatalf("state %d count %d, want %d", s, got, count)
		}
	})
	if base.Distinct() != resumed.Distinct() {
		t.Fatalf("distinct %d, want %d", resumed.Distinct(), base.Distinct())
	}
}

// TestSnapshotResumeHalting checks the halting path (StopWhenAnyHalted)
// and the halted tallies survive a round trip.
func TestSnapshotResumeHalting(t *testing.T) {
	opts := pop.Options{Seed: 4, StopWhenAnyHalted: true, MaxSteps: 1 << 40}
	base := New(300, haltOnMeet{}, opts)
	if advance(base, 20) {
		t.Fatal("world did not halt at its only effective interaction")
	}
	m := base.Memento()
	baseRes := base.Run()
	if baseRes.Reason != pop.ReasonHalted {
		t.Fatalf("base run did not halt: %+v", baseRes)
	}

	resumed := New(300, haltOnMeet{}, opts)
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); got != baseRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, got)
	}
	if resumed.HaltedCount() != base.HaltedCount() {
		t.Fatalf("halted count %d, want %d", resumed.HaltedCount(), base.HaltedCount())
	}
}

// TestSnapshotCaptureIsPassive checks capture does not perturb the
// compressed scheduler.
func TestSnapshotCaptureIsPassive(t *testing.T) {
	opts := pop.Options{Seed: 8, MaxSteps: 1 << 40}
	plain := New(100, colorProto{ones: 40}, opts)
	observed := New(100, colorProto{ones: 40}, opts)
	for i := 0; i < 2_000; i++ {
		advance(plain, 1)
		observed.Memento()
		advance(observed, 1)
	}
	if plain.Steps() != observed.Steps() || plain.Effective() != observed.Effective() {
		t.Fatalf("clocks diverged: %d/%d vs %d/%d",
			plain.Steps(), plain.Effective(), observed.Steps(), observed.Effective())
	}
	plain.ForEach(func(s int, count int64) {
		if observed.Count(s) != count {
			t.Fatalf("state %d count diverged", s)
		}
	})
}

// TestMementoSamplerStates pins the contract of the sampler field: a
// memento carries the pair sampler's alias drift state, and a memento
// without it (written before the sampler exported its state) restores
// onto a freshly built table, conserving the population.
func TestMementoSamplerStates(t *testing.T) {
	opts := pop.Options{Seed: 2, MaxSteps: 1 << 50}
	w := New(200, tokenProto{k: 6, cycle: 40}, opts)
	advance(w, 200)
	m := w.Memento()
	if m.PairSampler == nil {
		t.Fatal("memento dropped the pair sampler state")
	}

	m.PairSampler = nil
	fresh := New(200, tokenProto{k: 6, cycle: 40}, opts)
	if err := fresh.RestoreMemento(m); err != nil {
		t.Fatalf("memento without sampler state rejected: %v", err)
	}
	if !advance(fresh, 200) {
		t.Fatal("restored world froze")
	}
	var total int64
	fresh.ForEach(func(s int, c int64) { total += c })
	if total != 200 {
		t.Fatalf("population drifted to %d after restore, want 200", total)
	}
}

// TestSnapshotResumeBatchedDeterministic captures a memento from inside a
// batched alias run (via the Progress callback, i.e. at a block boundary)
// and checks the restored world finishes with a byte-identical result:
// the alias drift state in the memento makes the resumed RNG stream — and
// hence the trajectory — exactly reproducible, not merely equal in law.
func TestSnapshotResumeBatchedDeterministic(t *testing.T) {
	const n = 500
	opts := pop.Options{Seed: 13, MaxSteps: 30_000_000}
	var m *Memento[int]
	base := New(n, tokenProto{k: 6, cycle: 40}, opts)
	calls := 0
	base.opts.Progress = func(int64) {
		calls++
		if calls == 10 {
			m = base.Memento()
		}
	}
	baseRes := base.Run()
	if m == nil {
		t.Fatal("run too short to capture a mid-flight memento")
	}

	resumed := New(n, tokenProto{k: 6, cycle: 40}, opts)
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); got != baseRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, got)
	}
	base.ForEach(func(s int, count int64) {
		if got := resumed.Count(s); got != count {
			t.Fatalf("state %d count %d, want %d", s, got, count)
		}
	})
}

// TestRestoreMementoRejectsCorrupt covers the validation paths.
func TestRestoreMementoRejectsCorrupt(t *testing.T) {
	m := New(50, colorProto{ones: 10}, pop.Options{Seed: 1}).Memento()
	if err := New(51, colorProto{ones: 10}, pop.Options{Seed: 1}).RestoreMemento(m); err == nil {
		t.Fatal("accepted a population-size mismatch")
	}
	bad := *m
	bad.Counts = append([]int64(nil), m.Counts...)
	bad.Counts[int(m.Live[0])]++ // counts no longer sum to n
	if err := New(50, colorProto{ones: 10}, pop.Options{Seed: 1}).RestoreMemento(&bad); err == nil {
		t.Fatal("accepted counts that do not sum to n")
	}
	bad = *m
	bad.Counts = m.Counts[:1]
	if err := New(50, colorProto{ones: 10}, pop.Options{Seed: 1}).RestoreMemento(&bad); err == nil {
		t.Fatal("accepted truncated slot tables")
	}
	bad = *m
	bad.Counts = m.Counts
	bad.PairSlot = make([][]int32, len(m.PairSlot))
	for i, row := range m.PairSlot {
		bad.PairSlot[i] = append([]int32(nil), row...)
	}
	bad.PairSlot[0][0] = 9999 // out of pairAB range: would panic the pair tree
	if err := New(50, colorProto{ones: 10}, pop.Options{Seed: 1}).RestoreMemento(&bad); err == nil {
		t.Fatal("accepted an out-of-range pair index")
	}
	bad = *m
	bad.PairSlot = m.PairSlot
	tampered := *m.PairSampler
	tampered.Weights = append([]int64(nil), tampered.Weights...)
	tampered.Weights[0]++ // no longer matches the weight the tables imply
	bad.PairSampler = &tampered
	if err := New(50, colorProto{ones: 10}, pop.Options{Seed: 1}).RestoreMemento(&bad); err == nil {
		t.Fatal("accepted alias sampler state inconsistent with the slot tables")
	}
}
