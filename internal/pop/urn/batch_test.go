package urn

import (
	"fmt"
	"math"
	"testing"

	"shapesol/internal/pop"
)

// tallyProto wraps a swap protocol (Apply(a, b) = (b, a), effective iff
// a != b) and tallies the unordered state pair of every Apply call once
// armed. Swapping preserves the state multiset, so the responsive-pair
// weights are constant for the whole run and every batched draw must
// follow the same fixed law c_a*c_b / W — the cleanest possible target
// for a distribution test of the block loop.
type tallyProto struct {
	counts []int64 // initial multiplicity per state
	hits   map[[2]int]int
	armed  *bool
}

func (p tallyProto) InitialState(id, n int) int {
	var acc int64
	for s, c := range p.counts {
		acc += c
		if int64(id) < acc {
			return s
		}
	}
	return len(p.counts) - 1
}

func (p tallyProto) Apply(a, b int) (int, int, bool) {
	if a == b {
		return a, b, false
	}
	if *p.armed {
		if a > b {
			a, b = b, a
		}
		p.hits[[2]int{a, b}]++
		return b, a, true
	}
	return b, a, true
}

func (tallyProto) Halted(int) bool { return false }

// TestBatchedPairDrawDistribution pins the law of the batched block loop:
// with a swap protocol the configuration is invariant, so across a long
// stepBlock every drawn pair {a, b} must appear with probability
// c_a*c_b / W, the exact scheduler's law conditioned on an effective
// interaction. Each cell is checked within 5 sigma of its binomial
// expectation.
func TestBatchedPairDrawDistribution(t *testing.T) {
	armed := false
	proto := tallyProto{
		counts: []int64{2, 3, 5, 10},
		hits:   map[[2]int]int{},
		armed:  &armed,
	}
	w := New(20, proto, pop.Options{Seed: 21, MaxSteps: 1 << 60})
	// Only cross-state pairs are responsive: W = sum over a<b of c_a*c_b.
	want := map[[2]int]int64{
		{0, 1}: 6, {0, 2}: 10, {0, 3}: 20,
		{1, 2}: 15, {1, 3}: 30, {2, 3}: 50,
	}
	var W int64
	for _, cw := range want {
		W += cw
	}
	if got := w.ResponsiveWeight(); got != W {
		t.Fatalf("responsive weight = %d, want %d", got, W)
	}

	const trials = 200000
	armed = true
	if halted, exhausted := w.stepBlock(trials); halted || exhausted {
		t.Fatalf("swap world stopped early (halted=%v exhausted=%v)", halted, exhausted)
	}

	var drawn int
	for _, c := range proto.hits {
		drawn += c
	}
	if drawn != trials {
		t.Fatalf("tallied %d effective draws, want %d", drawn, trials)
	}
	for pair, cw := range want {
		p := float64(cw) / float64(W)
		mean := p * trials
		sigma := math.Sqrt(mean * (1 - p))
		if got := float64(proto.hits[pair]); math.Abs(got-mean) > 5*sigma {
			t.Errorf("pair %v drawn %v times, want %.0f +- %.0f", pair, got, mean, 5*sigma)
		}
	}
}

// TestBatchedHaltsAtExactInteraction checks the block loop does not
// overshoot a stop condition: the first halting interaction ends the run
// mid-block with Effective exactly 1, regardless of the block limit.
func TestBatchedHaltsAtExactInteraction(t *testing.T) {
	for _, limit := range []int64{2, 64, 1024} {
		w := New(80, haltOnMeet{}, pop.Options{Seed: 17, StopWhenAnyHalted: true, MaxSteps: 1 << 50})
		halted, exhausted := w.stepBlock(limit)
		if !halted || exhausted || w.Effective() != 1 {
			t.Fatalf("limit %d: halted=%v exhausted=%v effective=%d, want halted after 1",
				limit, halted, exhausted, w.Effective())
		}
	}
}

// TestBatchedProgressCadence checks the block loop preserves the
// observable RunContext contract: Progress fires at exact
// CheckEvery-effective boundaries with a strictly increasing simulated
// clock.
func TestBatchedProgressCadence(t *testing.T) {
	const checkEvery = 128
	var calls int
	last := int64(-1)
	w := New(200, tokenProto{k: 6, cycle: 40}, pop.Options{
		Seed: 5, MaxSteps: 400_000, CheckEvery: checkEvery,
		Progress: func(steps int64) {
			calls++
			if steps <= last {
				panic("progress clock not increasing")
			}
			last = steps
		},
	})
	res := w.Run()
	if res.Reason != pop.ReasonMaxSteps {
		t.Fatalf("token run stopped early: %+v", res)
	}
	// Every completed CheckEvery block of effective interactions before the
	// budget fired exactly one callback; the final partial (or
	// budget-clipped) block fires none.
	wantMax := int(res.Effective / checkEvery)
	if calls > wantMax || calls < wantMax-1 {
		t.Fatalf("progress fired %d times for %d effective interactions, want %d or %d",
			calls, res.Effective, wantMax-1, wantMax)
	}
}

// TestBatchedBlockZeroAllocs guards the batched hot loop per block: after
// warm-up a block of token-churn interactions — slot relabeling, pair
// recycling and amortized alias rebuilds included — must not allocate.
func TestBatchedBlockZeroAllocs(t *testing.T) {
	w := New(1000, tokenProto{k: 6, cycle: 40}, pop.Options{Seed: 1, MaxSteps: 1 << 60})
	for i := 0; i < 20; i++ {
		if halted, exhausted := w.stepBlock(64); halted || exhausted {
			t.Fatal("token world stopped during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if halted, exhausted := w.stepBlock(64); halted || exhausted {
			t.Fatal("token world stopped")
		}
	})
	if allocs != 0 {
		t.Fatalf("batched block allocates %v per block in steady state, want 0", allocs)
	}
}

// TestSamplerKindsAgreeOnColorMixing checks the geometric skip law end to
// end at a large success probability: colorProto's effective fraction is
// a fixed 21/45, so the step/effective ratio of the block loop must match
// it within binomial noise. TestGeometricSkipMatchesGeometricLaw covers
// the small-probability end, p = 1/C.
func TestSamplerKindsAgreeOnColorMixing(t *testing.T) {
	w := New(10, colorProto{ones: 3}, pop.Options{Seed: 3, MaxSteps: 1 << 60})
	const effTarget = 20000
	if !advance(w, effTarget) {
		t.Fatal("color world froze")
	}
	p := 21.0 / 45.0
	mean := float64(effTarget) / p
	sigma := math.Sqrt(float64(effTarget)*(1-p)) / p
	if got := float64(w.Steps()); math.Abs(got-mean) > 5*sigma {
		t.Errorf("%v steps for %d effective, want %.0f +- %.0f", got, effTarget, mean, 5*sigma)
	}
	if w.Count(1) != 3 || w.Count(0) != 7 {
		t.Errorf("multiset drifted")
	}
}

// BenchmarkStepBlock is the urn engine's micro-benchmark: one block of
// blockSize effective interactions on a churning token world (every event
// draws a geometric skip and retires one token slot for another). Steady
// state must report 0 allocs/op.
func BenchmarkStepBlock(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := New(n, tokenProto{k: 6, cycle: 40}, pop.Options{Seed: 1, MaxSteps: 1 << 62})
			w.stepBlock(blockSize) // warm the slot and pair tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if halted, exhausted := w.stepBlock(blockSize); halted || exhausted {
					b.Fatal("token world stopped")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockSize), "ns/effective")
		})
	}
}
