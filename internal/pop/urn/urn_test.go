package urn

import (
	"math"
	"testing"

	"shapesol/internal/obs"
	"shapesol/internal/pop"
)

// colorProto is a two-state inert-within, reactive-across protocol over
// {0, 1}: cross pairs swap (effective), same-state pairs are ineffective.
type colorProto struct{ ones int }

func (p colorProto) InitialState(id, n int) int {
	if id < p.ones {
		return 1
	}
	return 0
}

func (colorProto) Apply(a, b int) (int, int, bool) {
	if a == b {
		return a, b, false
	}
	return b, a, true
}

func (colorProto) Halted(int) bool { return false }

// tokenProto is a never-halting churn protocol used for steady-state
// measurements: one agent holds a token value in [k, k+cycle) and every
// token-color interaction advances the token through the cycle (allocating
// and freeing a slot each time, like a leader's counter state) while
// rotating the color. Color-color and token-token pairs are ineffective,
// so the responsive weight stays at n-1 and the geometric skip path is
// exercised on every event.
type tokenProto struct{ k, cycle int }

func (p tokenProto) InitialState(id, n int) int {
	if id == 0 {
		return p.k
	}
	return id % p.k
}

func (p tokenProto) Apply(a, b int) (int, int, bool) {
	ta, tb := a >= p.k, b >= p.k
	if ta == tb {
		return a, b, false
	}
	if tb {
		a, b = b, a
	}
	return (a+1-p.k)%p.cycle + p.k, (b + 1) % p.k, true
}

func (tokenProto) Halted(int) bool { return false }

// haltOnMeet halts agent 1 the first time it meets agent 0's state; every
// other pair is ineffective. With single copies of states 1 and 2 the
// per-step success probability is exactly 1/C, C = n(n-1)/2, so the halt
// step is geometric with mean C.
type haltOnMeet struct{}

func (haltOnMeet) InitialState(id, n int) int {
	switch id {
	case 0:
		return 1
	case 1:
		return 2
	default:
		return 0
	}
}

func (haltOnMeet) Apply(a, b int) (int, int, bool) {
	if (a == 1 && b == 2) || (a == 2 && b == 1) {
		if a == 2 {
			return 3, b, true
		}
		return a, 3, true
	}
	return a, b, false
}

func (haltOnMeet) Halted(s int) bool { return s == 3 }

func TestNewBuildsCompressedCounts(t *testing.T) {
	w := New(10, colorProto{ones: 3}, pop.Options{Seed: 1})
	if w.N() != 10 || w.Distinct() != 2 {
		t.Fatalf("n=%d distinct=%d, want 10, 2", w.N(), w.Distinct())
	}
	if w.Count(1) != 3 || w.Count(0) != 7 {
		t.Fatalf("counts = %d ones, %d zeros, want 3, 7", w.Count(1), w.Count(0))
	}
	// Only the cross pair is responsive: weight 3*7 of 45 total pairs.
	if got := w.ResponsiveWeight(); got != 21 {
		t.Fatalf("responsive weight = %d, want 21", got)
	}
}

// TestPairSamplingDistribution verifies that the pair tree realizes the
// uniform-pair law: with counts {0: 2, 1: 3} and every pair responsive,
// the unordered state pairs must appear with weights 1, 6, 3 out of 10.
func TestPairSamplingDistribution(t *testing.T) {
	swapAll := funcProto{
		apply: func(a, b int) (int, int, bool) { return a, b, true },
		init:  func(id, n int) int { return boolToInt(id < 3) },
	}
	w := New(5, swapAll, pop.Options{Seed: 7})
	if got := w.ResponsiveWeight(); got != 10 {
		t.Fatalf("responsive weight = %d, want 10 (all pairs)", got)
	}
	const trials = 100000
	hits := map[[2]int]int{}
	for i := 0; i < trials; i++ {
		ps, ok := w.pairF.Sample(w.rng)
		if !ok {
			t.Fatal("sample failed")
		}
		a, b := w.states[w.pairAB[ps][0]], w.states[w.pairAB[ps][1]]
		if a > b {
			a, b = b, a
		}
		hits[[2]int{a, b}]++
	}
	want := map[[2]int]float64{
		{0, 0}: 1.0 / 10, // c=2 -> 1 pair
		{0, 1}: 6.0 / 10,
		{1, 1}: 3.0 / 10,
	}
	for pair, p := range want {
		mean := p * trials
		if got := float64(hits[pair]); math.Abs(got-mean) > 5*math.Sqrt(mean) {
			t.Errorf("pair %v sampled %v times, want ~%v", pair, got, mean)
		}
	}
}

// funcProto adapts closures to the Protocol interface for tests.
type funcProto struct {
	init  func(id, n int) int
	apply func(a, b int) (int, int, bool)
}

func (p funcProto) InitialState(id, n int) int      { return p.init(id, n) }
func (p funcProto) Apply(a, b int) (int, int, bool) { return p.apply(a, b) }
func (funcProto) Halted(int) bool                   { return false }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestGeometricSkipMatchesGeometricLaw runs the compressed scheduler on a
// configuration with exactly one responsive agent pair, where the halting
// step is geometric with mean C = n(n-1)/2, and checks mean and halting
// verdicts over many trials.
func TestGeometricSkipMatchesGeometricLaw(t *testing.T) {
	const n, trials = 50, 3000
	C := float64(n * (n - 1) / 2)
	var sum float64
	for seed := int64(0); seed < trials; seed++ {
		w := New(n, haltOnMeet{}, pop.Options{Seed: seed, StopWhenAnyHalted: true})
		res := w.Run()
		if res.Reason != pop.ReasonHalted || res.Effective != 1 {
			t.Fatalf("seed %d: reason=%v effective=%d", seed, res.Reason, res.Effective)
		}
		if res.Skipped != res.Steps-1 {
			t.Fatalf("seed %d: skipped=%d steps=%d", seed, res.Skipped, res.Steps)
		}
		sum += float64(res.Steps)
	}
	mean := sum / trials
	// Geometric(1/C) has mean C and std ~C; 5 sigma over 3000 trials.
	if tol := 5 * C / math.Sqrt(trials); math.Abs(mean-C) > tol {
		t.Fatalf("mean halt step = %v, want %v +- %v", mean, C, tol)
	}
}

func TestFrozenConfigurationExhaustsBudget(t *testing.T) {
	inert := funcProto{
		init:  func(id, n int) int { return 0 },
		apply: func(a, b int) (int, int, bool) { return a, b, false },
	}
	w := New(8, inert, pop.Options{Seed: 1, MaxSteps: 1234})
	res := w.Run()
	if res.Reason != pop.ReasonMaxSteps || res.Steps != 1234 || res.Effective != 0 {
		t.Fatalf("frozen run = %+v, want max-steps at 1234", res)
	}
}

func TestMaxStepsClampsSkip(t *testing.T) {
	// One responsive pair among C = 19900: the first effective event lands
	// far beyond a budget of 10 with overwhelming probability.
	const budget = 10
	for seed := int64(0); seed < 20; seed++ {
		w := New(200, haltOnMeet{}, pop.Options{Seed: seed, StopWhenAnyHalted: true, MaxSteps: budget})
		res := w.Run()
		if res.Steps > budget {
			t.Fatalf("seed %d: steps %d exceed budget %d", seed, res.Steps, budget)
		}
		if res.Reason == pop.ReasonMaxSteps && res.Steps != budget {
			t.Fatalf("seed %d: budget stop at %d, want %d", seed, res.Steps, budget)
		}
	}
}

func TestStopConditionTrueAtEntry(t *testing.T) {
	preHalted := funcProto{
		init:  func(id, n int) int { return 3 },
		apply: func(a, b int) (int, int, bool) { return a, b, false },
	}
	w := New(4, protoWithHalt{preHalted}, pop.Options{Seed: 1, StopWhenAnyHalted: true})
	res := w.Run()
	if res.Reason != pop.ReasonHalted || res.Steps != 0 {
		t.Fatalf("entry-halted run = %+v, want immediate halt", res)
	}
	if w.HaltedCount() != 4 {
		t.Fatalf("halted count = %d, want 4", w.HaltedCount())
	}
}

// protoWithHalt overrides Halted on a funcProto: state 3 halts.
type protoWithHalt struct{ funcProto }

func (protoWithHalt) Halted(s int) bool { return s == 3 }

// TestAsymmetricEffectivenessPanics checks that the order-independence
// contract is enforced when a pair is classified, not silently violated: a
// protocol effective in only one argument order must panic immediately.
func TestAsymmetricEffectivenessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order-dependent effectiveness")
		}
	}()
	oneWay := funcProto{
		init:  func(id, n int) int { return id % 2 },
		apply: func(a, b int) (int, int, bool) { return a, b, a < b },
	}
	New(4, oneWay, pop.Options{Seed: 1})
}

// TestStepEffectiveZeroAllocs guards the urn hot loop per effective
// interaction: after warm-up, a one-interaction stepBlock must not
// allocate, even though every event retires one token slot and allocates
// another (slot, pair and map churn included).
func TestStepEffectiveZeroAllocs(t *testing.T) {
	w := New(1000, tokenProto{k: 6, cycle: 40}, pop.Options{Seed: 1, MaxSteps: 1 << 60})
	if !advance(w, 500) {
		t.Fatal("token world froze during warm-up")
	}
	allocs := testing.AllocsPerRun(500, func() {
		if !advance(w, 1) {
			t.Fatal("token world froze")
		}
	})
	if allocs != 0 {
		t.Fatalf("stepBlock allocates %v per event in steady state, want 0", allocs)
	}
}

// TestTokenChurnRecyclesSlots checks the slot bookkeeping under heavy
// alloc/free churn: the distinct-state count stays bounded by k+1 and the
// total population is conserved.
func TestTokenChurnRecyclesSlots(t *testing.T) {
	p := tokenProto{k: 6, cycle: 40}
	w := New(300, p, pop.Options{Seed: 9, MaxSteps: 1 << 60})
	for i := 0; i < 5000; i++ {
		if !advance(w, 1) {
			t.Fatal("token world froze")
		}
		if w.Distinct() > p.k+1 {
			t.Fatalf("distinct states %d exceed %d", w.Distinct(), p.k+1)
		}
	}
	var total int64
	w.ForEach(func(s int, c int64) { total += c })
	if total != 300 {
		t.Fatalf("population drifted to %d, want 300", total)
	}
	if got := w.CountWhere(func(s int) bool { return s >= p.k }); got != 1 {
		t.Fatalf("token count = %d, want 1", got)
	}
	if cap(w.states) > 4*(p.k+1) {
		t.Fatalf("slot table grew to %d for %d live states: recycling broken", cap(w.states), w.Distinct())
	}
}

// TestManyStatesUseSlotMap drives more than scanThreshold distinct
// states, so state lookup runs through the slotOf map (rebuilt after the
// scan-mode phase of New), and checks the census stays exact while the
// token's slot is relabeled every event.
func TestManyStatesUseSlotMap(t *testing.T) {
	p := tokenProto{k: 24, cycle: 40}
	w := New(500, p, pop.Options{Seed: 4, MaxSteps: 1 << 60})
	if w.Distinct() <= scanThreshold {
		t.Fatalf("%d distinct states, want more than %d", w.Distinct(), scanThreshold)
	}
	if !advance(w, 5000) {
		t.Fatal("token world froze")
	}
	var total int64
	w.ForEach(func(s int, c int64) {
		total += c
		if got := w.Count(s); got != c {
			t.Fatalf("Count(%d) = %d, ForEach says %d", s, got, c)
		}
	})
	if total != 500 {
		t.Fatalf("population drifted to %d, want 500", total)
	}
	if tok, ok := w.FindState(func(s int) bool { return s >= p.k }); !ok || w.Count(tok) != 1 {
		t.Fatalf("token state %d (found %v) has count %d, want 1", tok, ok, w.Count(tok))
	}
	if got := w.Count(-1); got != 0 {
		t.Fatalf("absent state counted %d", got)
	}
}

// TestStepEffectiveZeroAllocsWithMetrics proves instrumentation never
// costs the urn hot loop an allocation: with a metrics sink attached, a
// one-interaction stepBlock plus a per-event delta publish stays off the
// heap (counters are local int64s, the publish is atomic adds).
func TestStepEffectiveZeroAllocsWithMetrics(t *testing.T) {
	w := New(1000, tokenProto{k: 6, cycle: 40}, pop.Options{Seed: 1, MaxSteps: 1 << 60})
	w.SetMetrics(obs.NewEngineMetrics(obs.NewRegistry(), "urn"))
	if !advance(w, 500) {
		t.Fatal("token world froze during warm-up")
	}
	allocs := testing.AllocsPerRun(500, func() {
		if !advance(w, 1) {
			t.Fatal("token world froze")
		}
		w.publishMetrics()
	})
	if allocs != 0 {
		t.Fatalf("instrumented stepBlock allocates %v per event, want 0", allocs)
	}
}

// advance runs up to k effective interactions through stepBlock, the
// engine's only stepping path, and reports whether all k ran (false when
// a stop condition, the step budget or a frozen configuration ended the
// block first).
func advance(w *World[int], k int64) bool {
	start := w.effective
	w.stepBlock(k)
	return w.effective-start == k
}
