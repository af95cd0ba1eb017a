package core

import (
	"testing"

	"shapesol/internal/grid"
	"shapesol/internal/sim"
)

func TestCountLineTerminatesAndCounts(t *testing.T) {
	for _, tc := range []struct{ n, b int }{
		{8, 2}, {20, 3}, {40, 4},
	} {
		w := NewCountLineWorld(tc.n, tc.b, int64(tc.n*7+tc.b), 20_000_000, nil)
		out := CountLineOutcomeOf(tc.b, w, w.Run())
		if !out.Halted {
			t.Fatalf("n=%d b=%d: did not halt in %d steps", tc.n, tc.b, out.Steps)
		}
		if out.R0 <= 0 || out.R0 > int64(tc.n-1) {
			t.Fatalf("n=%d: r0 = %d out of range", tc.n, out.R0)
		}
		if !out.DebtRepaid {
			t.Fatalf("n=%d: terminated with outstanding debt", tc.n)
		}
		if out.LineLength != ExpectedLineLength(out.R0) {
			t.Fatalf("n=%d: line length %d, want floor(lg %d)+1 = %d",
				tc.n, out.LineLength, out.R0, ExpectedLineLength(out.R0))
		}
	}
}

func TestCountLineSucceedsWHP(t *testing.T) {
	// Lemma 1 inherits Theorem 1's guarantee ("in fact it is improved"):
	// with b=4 at n=30, failures across 15 trials are essentially
	// impossible; allow one for scheduler-level slack.
	const n, b, trials = 30, 4, 15
	successes := 0
	for i := 0; i < trials; i++ {
		w := NewCountLineWorld(n, b, int64(1000+i), 40_000_000, nil)
		out := CountLineOutcomeOf(b, w, w.Run())
		if !out.Halted {
			t.Fatalf("trial %d did not halt", i)
		}
		if out.Success {
			successes++
		}
	}
	if successes < trials-1 {
		t.Fatalf("r0 >= n/2 in only %d/%d trials", successes, trials)
	}
}

func TestCountLineLineIsStraight(t *testing.T) {
	proto := &CountLine{B: 3}
	w := sim.New(24, proto, sim.Options{Seed: 99, MaxSteps: 20_000_000, StopWhenAnyHalted: true})
	res := w.Run()
	if res.Reason != sim.ReasonHalted {
		t.Fatalf("did not halt: %v", res.Reason)
	}
	slot := w.ComponentOf(0)
	shape := w.ComponentShape(slot)
	h, v, _ := shape.Dims()
	if min(h, v) != 1 {
		t.Fatalf("tape is not a straight line: %dx%d", h, v)
	}
	if max(h, v) != w.ComponentSize(slot) {
		t.Fatalf("tape has gaps: dims %dx%d size %d", h, v, w.ComponentSize(slot))
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCountLineCensusConservation(t *testing.T) {
	// During the run: #q1 (free) = r0 - r1 - r2 pending debt accounting,
	// and every node is leader, tape cell, or free. We check the weaker
	// structural invariant that holds throughout: tape length fits r0.
	proto := &CountLine{B: 2}
	w := sim.New(16, proto, sim.Options{Seed: 5, MaxSteps: 5_000_000})
	for i := 0; i < 2_000_000; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if w.HaltedCount() > 0 {
			break
		}
		if i%2000 == 0 {
			lid := FindLeader(w)
			if lid < 0 {
				t.Fatal("no leader present")
			}
			if w.State(lid).Lead.Frozen {
				continue // counters are mid-update while frozen
			}
			r0, r1, r2, length := ReadCounters(w, lid)
			if r1 > r0 {
				t.Fatalf("r1=%d > r0=%d at step %d", r1, r0, i)
			}
			if length != ExpectedLineLength(r0) && r0 > 0 {
				t.Fatalf("length %d vs expected %d (r0=%d)", length, ExpectedLineLength(r0), r0)
			}
			if r2 > int64(length) {
				t.Fatalf("debt r2=%d exceeds tape length %d", r2, length)
			}
		}
	}
}

func TestExpectedLineLength(t *testing.T) {
	for _, tc := range []struct {
		r0   int64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	} {
		if got := ExpectedLineLength(tc.r0); got != tc.want {
			t.Errorf("ExpectedLineLength(%d) = %d, want %d", tc.r0, got, tc.want)
		}
	}
}

func TestCountLineFullTapeCountsAtFreeEndOnly(t *testing.T) {
	// While the tape is full the leader meets free nodes of every phase
	// only at its free end, where a q0 can be bound; otherwise at all its
	// free ports. Either way q0s and q1s are counted at the same rate.
	p := &CountLine{B: 3}
	for _, full := range []bool{false, true} {
		lead := leadSt(clLeader{HasTape: true, TapePort: grid.NX, Full: full, H: 3})
		for phase := 0; phase <= 2; phase++ {
			for _, pa := range []grid.Dir{grid.PY, grid.PX, grid.NY} {
				_, _, _, eff := p.Interact(lead, freeSt(phase), pa, grid.NX, false)
				if want := !full || pa == grid.PX; eff != want {
					t.Errorf("full=%v q%d at port %v: effective %v, want %v", full, phase, pa, eff, want)
				}
			}
		}
	}
}
