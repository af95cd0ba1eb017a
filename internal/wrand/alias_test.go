package wrand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAliasWeightsAndTotal(t *testing.T) {
	a := NewAlias(8)
	a.Set(0, 3)
	a.Set(5, 10)
	a.Set(5, 7)
	a.Set(7, 1)
	if got := a.Total(); got != 11 {
		t.Fatalf("total = %d, want 11", got)
	}
	if got := a.Weight(5); got != 7 {
		t.Fatalf("weight(5) = %d, want 7", got)
	}
	if got := a.Weight(3); got != 0 {
		t.Fatalf("weight(3) = %d, want 0", got)
	}
}

func TestAliasSampleEmpty(t *testing.T) {
	a := NewAlias(4)
	if _, ok := a.Sample(rand.New(rand.NewSource(1))); ok {
		t.Fatal("sampling an all-zero sampler should fail")
	}
}

func TestAliasNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	a := NewAlias(1)
	a.Set(0, -1)
}

func TestAliasGrowPreservesWeights(t *testing.T) {
	prop := func(ws []uint8, extra1, extra2 uint8) bool {
		a := NewAlias(0)
		a.Grow(len(ws))
		for i, w := range ws {
			a.Set(i, int64(w))
		}
		a.Grow(len(ws)) // no-op
		a.Grow(len(ws) + int(extra1))
		a.Grow(len(ws)) // shrink requests are no-ops
		a.Grow(len(ws) + int(extra1) + int(extra2))
		var want int64
		for i, w := range ws {
			if a.Weight(i) != int64(w) {
				return false
			}
			want += int64(w)
		}
		for i := len(ws); i < a.Len(); i++ {
			if a.Weight(i) != 0 {
				return false
			}
		}
		return a.Total() == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// aliasChi2 samples the given sampler and returns the chi-squared
// statistic against the exact expected frequencies, failing the test on a
// draw from a zero-weight slot.
func aliasChi2(t *testing.T, s *Alias, r Rand, trials int) (float64, int) {
	t.Helper()
	counts := make([]int, s.Len())
	for i := 0; i < trials; i++ {
		idx, ok := s.Sample(r)
		if !ok {
			t.Fatal("sample failed with positive total")
		}
		counts[idx]++
	}
	var stat float64
	df := -1
	total := float64(s.Total())
	for i, c := range counts {
		w := float64(s.Weight(i))
		if w == 0 {
			if c != 0 {
				t.Fatalf("zero-weight slot %d sampled %d times", i, c)
			}
			continue
		}
		df++
		expect := w / total * float64(trials)
		d := float64(c) - expect
		stat += d * d / expect
	}
	return stat, df
}

// chi2Critical99_9 holds upper critical values of the chi-squared
// distribution at alpha = 0.001 for the degrees of freedom these tests hit.
var chi2Critical99_9 = map[int]float64{
	4: 18.47, 5: 20.52, 6: 22.46, 7: 24.32, 8: 26.12, 9: 27.88,
}

// TestAliasSampleChiSquared is the distribution test the tentpole hinges
// on: Alias.Sample must stay exactly proportional to the live weights
// through the regimes its stale-table machinery creates — fresh table,
// weights decayed below their table entries (rejection path), weights
// grown above them (excess path), and across amortized rebuilds.
func TestAliasSampleChiSquared(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const trials = 100000

	check := func(name string, a *Alias) {
		t.Helper()
		stat, df := aliasChi2(t, a, r, trials)
		crit, ok := chi2Critical99_9[df]
		if !ok {
			t.Fatalf("%s: no critical value for df=%d", name, df)
		}
		if stat > crit {
			t.Errorf("%s: chi-squared = %.2f > %.2f (df=%d, alpha=0.001)", name, stat, crit, df)
		}
	}

	// Fresh table: pure alias draws.
	a := NewAlias(6)
	for i, w := range []int64{5, 1, 0, 7, 2, 10} {
		a.Set(i, w)
	}
	a.rebuild() // start from an exact table
	check("fresh", a)

	// Decay two weights below their table entries: rejection path.
	a.Set(5, 4)
	a.Set(3, 1)
	check("decayed", a)

	// Grow two weights above their table entries: excess path, and push a
	// previously-zero slot positive.
	a.Set(1, 9)
	a.Set(2, 6)
	check("excess", a)

	// Incremental churn across rebuild boundaries.
	weights := []int64{5, 9, 6, 1, 2, 4}
	churn := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		i := churn.Intn(len(weights))
		weights[i] = int64(churn.Intn(12))
		a.Set(i, weights[i])
	}
	// Ensure a sampleable state.
	if a.Total() == 0 {
		a.Set(0, 3)
	}
	check("churned", a)
}

// TestAliasMatchesFenwickOnChurn cross-checks the two samplers on a
// churning weight vector: identical weight histories must give
// statistically indistinguishable draw distributions (compared cell-wise
// against the shared exact law).
func TestAliasMatchesFenwickOnChurn(t *testing.T) {
	const n = 24
	a := NewAlias(n)
	f := NewFenwick(n)
	churn := rand.New(rand.NewSource(99))
	for step := 0; step < 4000; step++ {
		i := churn.Intn(n)
		w := int64(churn.Intn(40))
		a.Set(i, w)
		f.Set(i, w)
	}
	if a.Total() != f.Total() {
		t.Fatalf("totals diverged: alias %d, fenwick %d", a.Total(), f.Total())
	}
	for i := 0; i < n; i++ {
		if a.Weight(i) != f.Weight(i) {
			t.Fatalf("weight(%d) diverged: alias %d, fenwick %d", i, a.Weight(i), f.Weight(i))
		}
	}

	const trials = 200000
	ra := rand.New(rand.NewSource(5))
	rf := rand.New(rand.NewSource(6))
	ca := make([]int, n)
	cf := make([]int, n)
	for i := 0; i < trials; i++ {
		ia, ok := a.Sample(ra)
		if !ok {
			t.Fatal("alias sample failed")
		}
		ca[ia]++
		fi, ok := f.Sample(rf)
		if !ok {
			t.Fatal("fenwick sample failed")
		}
		cf[fi]++
	}
	// Each positive-weight cell of each sampler must sit within 5 sigma of
	// the shared exact expectation.
	total := float64(a.Total())
	for i := 0; i < n; i++ {
		w := float64(a.Weight(i))
		if w == 0 {
			if ca[i] != 0 || cf[i] != 0 {
				t.Fatalf("zero-weight slot %d sampled (alias %d, fenwick %d)", i, ca[i], cf[i])
			}
			continue
		}
		expect := w / total * trials
		sigma := math.Sqrt(expect * (1 - w/total))
		if d := math.Abs(float64(ca[i]) - expect); d > 5*sigma {
			t.Errorf("alias slot %d: %d draws, want %.0f +- %.0f", i, ca[i], expect, 5*sigma)
		}
		if d := math.Abs(float64(cf[i]) - expect); d > 5*sigma {
			t.Errorf("fenwick slot %d: %d draws, want %.0f +- %.0f", i, cf[i], expect, 5*sigma)
		}
	}
}

// TestAliasStateRoundTrip pins the snapshot contract: exporting the state
// and restoring it into a fresh sampler must reproduce the exact draw
// sequence of the original, including mid-flight table drift.
func TestAliasStateRoundTrip(t *testing.T) {
	a := NewAlias(10)
	churn := rand.New(rand.NewSource(3))
	for step := 0; step < 300; step++ {
		a.Set(churn.Intn(10), int64(churn.Intn(30)))
	}
	if a.Total() == 0 {
		a.Set(4, 9)
	}

	state := a.State()
	b := NewAlias(0)
	if err := b.SetState(state); err != nil {
		t.Fatalf("SetState: %v", err)
	}

	// Identical RNG streams must yield identical draws and identical
	// post-draw updates (exercising rebuild-point determinism).
	ra := NewRNG(11)
	rb := NewRNG(11)
	for step := 0; step < 2000; step++ {
		ia, oka := a.Sample(ra)
		ib, okb := b.Sample(rb)
		if ia != ib || oka != okb {
			t.Fatalf("draw %d diverged: (%d,%v) vs (%d,%v)", step, ia, oka, ib, okb)
		}
		w := int64(ra.Intn(25))
		if w2 := int64(rb.Intn(25)); w2 != w {
			t.Fatalf("rng streams diverged")
		}
		a.Set(ia, w)
		b.Set(ib, w)
	}
}

// TestAliasStateRejectsCorrupt checks the validation surface of SetState.
func TestAliasStateRejectsCorrupt(t *testing.T) {
	base := AliasState{
		Weights: []int64{3, 0, 5},
		TableW:  []int64{2, 0, 6},
		Excess:  []int32{0},
	}
	if err := NewAlias(0).SetState(base); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	corrupt := []AliasState{
		{Weights: base.Weights, TableW: base.TableW[:2], Excess: base.Excess},
		{Weights: []int64{3, -1, 5}, TableW: base.TableW, Excess: base.Excess},
		{Weights: base.Weights, TableW: base.TableW, Excess: nil},
		{Weights: base.Weights, TableW: base.TableW, Excess: []int32{2}},
		{Weights: base.Weights, TableW: base.TableW, Excess: []int32{0, 0}},
		{Weights: base.Weights, TableW: base.TableW, Excess: []int32{7}},
	}
	for i, s := range corrupt {
		if err := NewAlias(0).SetState(s); err == nil {
			t.Errorf("corrupt state %d accepted", i)
		}
	}
}

// TestAliasZeroAllocSteadyState guards the hot path: once sized, Set and
// Sample must not allocate, including across amortized rebuilds.
func TestAliasZeroAllocSteadyState(t *testing.T) {
	a := NewAlias(32)
	r := NewRNG(1)
	for i := 0; i < 32; i++ {
		a.Set(i, int64(1+i%7))
	}
	avg := testing.AllocsPerRun(2000, func() {
		i, _ := a.Sample(r)
		a.Set(i, int64(r.Intn(9)))
		if a.Total() == 0 {
			a.Set(0, 1)
		}
	})
	if avg != 0 {
		t.Fatalf("alias Set/Sample allocated %.2f allocs/op, want 0", avg)
	}
}

// TestAliasExactMatchesProperty drives random operation sequences and
// verifies the structural invariants against a brute-force model.
func TestAliasExactMatchesProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		a := NewAlias(8)
		model := make([]int64, 8)
		for _, op := range ops {
			i := int(op % 8)
			w := int64((op / 8) % 64)
			a.Set(i, w)
			model[i] = w
		}
		var want int64
		for i, w := range model {
			if a.Weight(i) != w {
				return false
			}
			want += w
		}
		return a.Total() == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
