package sim

import (
	"math/rand"
	"testing"

	"shapesol/internal/grid"
	"shapesol/internal/rules"
)

// randomTable draws a rule table over four states whose rules form,
// break and keep bonds at random, so runs merge, split and re-bond, with
// enough ineffective pairs left for the skip to jump over.
func randomTable(r *rand.Rand, dim int) *rules.Table {
	tb := rules.NewTable("random", "q0")
	tb.SetLeader("q1")
	states := []rules.State{"q0", "q1", "q2", "q3"}
	ports := grid.Ports2D[:]
	if dim == 3 {
		ports = grid.Ports3D[:]
	}
	pick := func() rules.State { return states[r.Intn(len(states))] }
	for i := 0; i < 400; i++ {
		pa, pb := ports[r.Intn(len(ports))], ports[r.Intn(len(ports))]
		_ = tb.Add(pick(), pa, pick(), pb, r.Intn(3) == 0, pick(), pick(), r.Intn(4) != 0)
	}
	return tb
}

// validateRun runs w with Validate after every effective interaction and
// on every CheckEvery tick, and returns the run's result and the number of
// validations.
func validateRun[S comparable](t *testing.T, w *World[S]) (Result, int) {
	t.Helper()
	checks := 0
	validate := func() {
		checks++
		if err := w.Validate(); err != nil {
			t.Fatalf("step %d: %v", w.steps, err)
		}
	}
	w.opts.Progress = func(int64) { validate() }
	w.doneAfter = func(*World[S]) bool { validate(); return false }
	res := w.Run()
	validate()
	return res, checks
}

// TestSkipBookMatchesEnumeration is the exact check of the skip's
// bookkeeping on random rule tables and on the engine's test protocols,
// in 2D and 3D: after every effective interaction and on every cadence
// tick, |S| and every part of C must equal a from-scratch enumeration that
// asks the protocol afresh.
func TestSkipBookMatchesEnumeration(t *testing.T) {
	effective := int64(0)
	for seed := int64(0); seed < 16; seed++ {
		dim := 2 + int(seed%2)
		table := randomTable(rand.New(rand.NewSource(seed)), dim)
		w := New(10, NewTableProtocol(table), Options{Dim: dim, Seed: seed, MaxSteps: 100_000, CheckEvery: 500})
		res, _ := validateRun(t, w)
		effective += res.Effective
	}
	if effective < 1000 {
		t.Fatalf("random tables fired only %d effective interactions", effective)
	}
	glue, _ := validateRun(t, New(14, glueProtocol{}, Options{Dim: 3, Seed: 3, MaxSteps: 50_000}))
	if glue.Merges != 13 {
		t.Fatalf("glue merged %d times, want 13", glue.Merges)
	}
	churn, _ := validateRun(t, New(12, churnProtocol{}, Options{Seed: 4, MaxSteps: 3_000}))
	if churn.Splits == 0 {
		t.Fatal("churn never split")
	}
	line, _ := validateRun(t, New(12, NewTableProtocol(lineTable(t)), Options{Seed: 5, MaxSteps: 200_000}))
	if line.Merges != 11 {
		t.Fatalf("line merged %d times, want 11", line.Merges)
	}
}

// TestSkipSettleValidates runs Settle, the post-halt read-out loop, under
// the same exact check, and checks that done runs at entry and after every
// effective interaction.
func TestSkipSettleValidates(t *testing.T) {
	table := randomTable(rand.New(rand.NewSource(25)), 2)
	w := New(9, NewTableProtocol(table), Options{Seed: 25, MaxSteps: 1_000})
	before := w.Run()
	calls := int64(0)
	res := w.Settle(t.Context(), 20_000, func(w *World[rules.State]) bool {
		calls++
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		return false
	})
	if res.Reason != ReasonMaxSteps || res.Steps != 21_000 || calls != 1+res.Effective-before.Effective {
		t.Fatalf("settle %+v after %+v made %d checks", res, before, calls)
	}
}

// TestSkipJumpsWhenNothingIsEffective checks the degenerate skip: with no
// effective pair at all the run jumps from one cadence point to the next,
// firing Progress on every multiple as a per-step loop would.
func TestSkipJumpsWhenNothingIsEffective(t *testing.T) {
	var ticks []int64
	w := New(6, inertProtocol{}, Options{Seed: 1, MaxSteps: 1 << 40, CheckEvery: 1 << 30,
		Progress: func(s int64) { ticks = append(ticks, s) }})
	res := w.Run()
	if res.Steps != 1<<40 || res.Effective != 0 || res.Reason != ReasonMaxSteps {
		t.Fatalf("%+v", res)
	}
	if len(ticks) != 1<<10 || ticks[0] != 1<<30 || ticks[len(ticks)-1] != 1<<40 {
		t.Fatalf("%d ticks from %d to %d", len(ticks), ticks[0], ticks[len(ticks)-1])
	}
	if w.skipped != 1<<40 {
		t.Fatalf("skipped %d steps, want all of them", w.skipped)
	}
}

// TestSkipResumeFromEveryTick captures a memento at every Progress tick of
// a skipping run and resumes each in a fresh world: the restored world
// rebuilds its bookkeeping from the configuration, and every resumed run
// must end exactly as the uninterrupted one.
func TestSkipResumeFromEveryTick(t *testing.T) {
	for seed := int64(30); seed < 34; seed++ {
		dim := 2 + int(seed%2)
		table := randomTable(rand.New(rand.NewSource(seed)), dim)
		opts := Options{Dim: dim, Seed: seed, MaxSteps: 40_000, CheckEvery: 1_000}
		var mementos []*Memento[rules.State]
		base := New(10, NewTableProtocol(table), opts)
		base.opts.Progress = func(int64) { mementos = append(mementos, base.Memento()) }
		want := base.Run()
		final := base.Memento()
		if len(mementos) < 10 {
			t.Fatalf("seed %d: %d ticks", seed, len(mementos))
		}
		for _, m := range mementos {
			resumed := New(10, NewTableProtocol(table), opts)
			if err := resumed.RestoreMemento(m); err != nil {
				t.Fatal(err)
			}
			if got := resumed.Run(); got != want {
				t.Fatalf("seed %d: resumed at %d: %+v, want %+v", seed, m.Steps, got, want)
			}
			if resumed.rng.State() != final.RNG {
				t.Fatalf("seed %d: resumed at %d ends on another random stream", seed, m.Steps)
			}
		}
	}
}
