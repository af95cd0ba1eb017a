package counting

import (
	"testing"

	"shapesol/internal/pop"
)

func TestUpperBoundAlwaysHalts(t *testing.T) {
	for _, tc := range []struct{ n, b int }{
		{4, 1}, {4, 3}, {10, 2}, {50, 4}, {100, 5}, {7, 100}, // b > n clamps
	} {
		w := NewUpperBoundWorld(tc.n, tc.b, int64(tc.n*1000+tc.b), 0, nil)
		out := UpperBoundOutcomeOf(tc.b, w, w.Run())
		if out.Steps == 0 {
			t.Errorf("n=%d b=%d: did not run", tc.n, tc.b)
		}
		if out.R0 == 0 {
			t.Errorf("n=%d b=%d: leader halted with r0=0", tc.n, tc.b)
		}
	}
}

func TestUpperBoundSucceedsWHP(t *testing.T) {
	// With b=5 the failure probability is at most 1/n^3; 60 trials at n=100
	// fail together with probability < 1e-4 even under a loose constant.
	const n, b, trials = 100, 5, 60
	successes := 0
	var ratioSum float64
	for i := 0; i < trials; i++ {
		w := NewUpperBoundWorld(n, b, int64(i), 0, nil)
		out := UpperBoundOutcomeOf(b, w, w.Run())
		if out.Success {
			successes++
		}
		ratioSum += out.Estimate
	}
	if successes < trials-1 {
		t.Fatalf("successes = %d/%d; Theorem 1 promises r0 >= n/2 w.h.p.", successes, trials)
	}
	mean := ratioSum / trials
	// Remark 2: the estimate is expected much closer to n than n/2,
	// "always close to (9/10)n and usually higher" in the paper's runs.
	if mean < 0.75 || mean > 1.0 {
		t.Fatalf("mean r0/n = %.3f, want within (0.75, 1.0]", mean)
	}
}

func TestUpperBoundCountersInvariant(t *testing.T) {
	// r0 >= r1 always: every q1 counted by R1 was first counted by R0.
	proto := &UpperBound{B: 3}
	w := pop.New(40, proto, pop.Options{Seed: 9})
	for i := 0; i < 20000; i++ {
		w.Step()
		l := w.State(0).L
		if l.R0 < l.R1 {
			t.Fatalf("r0=%d < r1=%d at step %d", l.R0, l.R1, i)
		}
		if l.Done {
			break
		}
	}
	// Conservation: #q1 = r0 - r1, #q2 = r1 (among non-leaders).
	l := w.State(0).L
	q1 := w.CountNodes(func(s UBState) bool { return !s.IsLeader && s.Q == Q1 })
	q2 := w.CountNodes(func(s UBState) bool { return !s.IsLeader && s.Q == Q2 })
	if int64(q1) != l.R0-l.R1 {
		t.Fatalf("#q1=%d, want r0-r1=%d", q1, l.R0-l.R1)
	}
	if int64(q2) != l.R1 {
		t.Fatalf("#q2=%d, want r1=%d", q2, l.R1)
	}
}

func TestUpperBoundHaltPriority(t *testing.T) {
	// Once r0 == r1, the very next leader interaction halts regardless of
	// the partner's phase.
	p := &UpperBound{B: 2}
	l := UBState{IsLeader: true, L: Leader{R0: 5, R1: 5}}
	na, nb, eff := p.Apply(l, UBState{Q: Q0})
	if !eff || !na.L.Done || nb.Q != Q0 {
		t.Fatalf("halt rule not applied: %v %v %v", na, nb, eff)
	}
}

func TestSimpleUIDTerminatesAndCounts(t *testing.T) {
	const n, b, trials = 6, 3, 30
	exact := 0
	for i := 0; i < trials; i++ {
		w := NewSimpleUIDWorld(n, b, int64(100+i), 5_000_000, nil)
		out := SimpleUIDOutcomeOf(b, w, w.Run())
		if out.Output == 0 {
			t.Fatalf("trial %d: no agent terminated", i)
		}
		if out.Exact {
			exact++
		}
	}
	if exact < trials*3/4 {
		t.Fatalf("exact counts: %d/%d; Theorem 2 promises exactness w.h.p.", exact, trials)
	}
}

func TestSimpleUIDExpectedTimeGrowsWithB(t *testing.T) {
	// Theta(n^b): the b=3 runs must be markedly slower than b=2 at the
	// same n. Averages over a handful of seeds keep the test stable.
	const n, trials = 6, 12
	avg := func(b int) float64 {
		var total int64
		for i := 0; i < trials; i++ {
			w := NewSimpleUIDWorld(n, b, int64(i), 50_000_000, nil)
			total += SimpleUIDOutcomeOf(b, w, w.Run()).Steps
		}
		return float64(total) / trials
	}
	t2, t3 := avg(2), avg(3)
	if t3 < 2*t2 {
		t.Fatalf("E[steps] b=3 (%.0f) not clearly larger than b=2 (%.0f)", t3, t2)
	}
}

func TestUIDWinnerIsMaxAndCoversPopulation(t *testing.T) {
	const n, b, trials = 60, 4, 25
	wins, success := 0, 0
	for i := 0; i < trials; i++ {
		w := NewUIDWorld(n, b, int64(i), 0, nil)
		out := UIDOutcomeOf(b, w, w.Run())
		if out.Output == 0 {
			t.Fatalf("trial %d: nobody halted", i)
		}
		if out.WinnerIsMax {
			wins++
		}
		if out.Success {
			success++
		}
	}
	if wins < trials-1 {
		t.Fatalf("winner was max id in %d/%d trials", wins, trials)
	}
	if success < trials-1 {
		t.Fatalf("2*count1 >= n in %d/%d trials", success, trials)
	}
}

func TestUIDDeactivationMonotone(t *testing.T) {
	// Exactly one active agent remains in the limit; active count never
	// increases.
	proto := &UID{B: 3}
	w := pop.New(30, proto, pop.Options{Seed: 4})
	prev := 30
	for i := 0; i < 100000; i++ {
		w.Step()
		active := w.CountNodes(func(s *UIDState) bool { return s.Active })
		if active > prev {
			t.Fatalf("active count grew from %d to %d", prev, active)
		}
		prev = active
		if w.HaltedCount() > 0 {
			break
		}
	}
	if prev < 1 {
		t.Fatalf("no active agent left")
	}
}

func TestUIDCustomIDs(t *testing.T) {
	ids := []int{17, 3, 99, 42}
	out := func() UIDOutcome {
		proto := &UID{B: 2, IDs: ids}
		w := pop.New(len(ids), proto, pop.Options{Seed: 5, StopWhenAnyHalted: true})
		res := w.Run()
		st := w.State(res.FirstHalted)
		return UIDOutcome{WinnerIsMax: st.ID == 99, Output: st.Output}
	}()
	if !out.WinnerIsMax {
		t.Fatalf("winner should carry the max custom id")
	}
}

func TestLeaderlessEarlyTerminationStaysLikely(t *testing.T) {
	// Conjecture 1 evidence: P[some agent terminates within |s0|=2
	// interactions] does not vanish as n grows.
	proto := TwoZerosProtocol()
	rate := func(n int) float64 {
		const trials = 40
		hits := 0
		for i := 0; i < trials; i++ {
			w := NewLeaderlessWorld(proto, n, int64(i), int64(50*n), nil)
			if LeaderlessOutcomeOf(w, w.Run()).EarlyTermination {
				hits++
			}
		}
		return float64(hits) / trials
	}
	small, large := rate(20), rate(200)
	if small < 0.5 || large < 0.5 {
		t.Fatalf("early-termination rates small=%.2f large=%.2f; expected both to stay high", small, large)
	}
}

func TestObservationProtocolDelta(t *testing.T) {
	p := TwoZerosProtocol()
	sa, sb, eff := p.Apply(ObsState{Comm: "q0"}, ObsState{Comm: "q0"})
	if !eff {
		t.Fatal("q0/q0 should be effective")
	}
	if sa.Comm != "q1" || sb.Comm != "q1" {
		t.Fatalf("delta wrong: %v %v", sa.Comm, sb.Comm)
	}
	if len(sa.Seen) != 1 || sa.Seen[0] != "q0" {
		t.Fatalf("observation memory wrong: %v", sa.Seen)
	}
}

func TestPopEngineUniformPairs(t *testing.T) {
	// Smoke check of the pop scheduler: all pairs occur.
	proto := TwoZerosProtocol()
	w := pop.New(4, proto, pop.Options{Seed: 2})
	for i := 0; i < 2000; i++ {
		w.Step()
	}
	if w.Steps() != 2000 {
		t.Fatalf("steps = %d", w.Steps())
	}
}
