package wrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFenwickWeightsAndTotal(t *testing.T) {
	f := NewFenwick(8)
	f.Add(0, 3)
	f.Add(5, 10)
	f.Set(5, 7)
	f.Add(7, 1)
	if got := f.Total(); got != 11 {
		t.Fatalf("total = %d, want 11", got)
	}
	if got := f.Weight(5); got != 7 {
		t.Fatalf("weight(5) = %d, want 7", got)
	}
	if got := f.Weight(3); got != 0 {
		t.Fatalf("weight(3) = %d, want 0", got)
	}
}

func TestFenwickPrefixProperty(t *testing.T) {
	f := func(ws []uint8) bool {
		if len(ws) == 0 {
			return true
		}
		fw := NewFenwick(len(ws))
		var want int64
		for i, w := range ws {
			fw.Set(i, int64(w))
			want += int64(w)
		}
		if fw.Total() != want {
			return false
		}
		for i, w := range ws {
			if fw.Weight(i) != int64(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFenwickSampleDistribution(t *testing.T) {
	f := NewFenwick(4)
	weights := []int64{1, 0, 3, 6}
	for i, w := range weights {
		f.Set(i, w)
	}
	r := rand.New(rand.NewSource(1))
	const trials = 200000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		idx, ok := f.Sample(r)
		if !ok {
			t.Fatal("sample failed with positive total")
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight slot sampled %d times", counts[1])
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		want := float64(w) / 10 * trials
		got := float64(counts[i])
		if math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("slot %d sampled %v times, want ~%v", i, got, want)
		}
	}
}

func TestFenwickSampleEmpty(t *testing.T) {
	f := NewFenwick(4)
	if _, ok := f.Sample(rand.New(rand.NewSource(1))); ok {
		t.Fatal("sampling an all-zero tree should fail")
	}
}

func TestFenwickGrow(t *testing.T) {
	f := NewFenwick(2)
	f.Set(0, 5)
	f.Set(1, 2)
	f.Grow(10)
	if f.Total() != 7 || f.Weight(0) != 5 || f.Weight(1) != 2 {
		t.Fatalf("grow lost state: total=%d", f.Total())
	}
	f.Set(9, 4)
	if f.Total() != 11 {
		t.Fatalf("total after growth = %d, want 11", f.Total())
	}
}

// TestFenwickGrowPreservesWeights is the property-based growth test the
// urn engine's pair-weight bookkeeping leans on: growing in arbitrary
// stages (including the degenerate grow-from-zero and shrink-request
// no-ops) must preserve every weight and the total.
func TestFenwickGrowPreservesWeights(t *testing.T) {
	prop := func(ws []uint8, extra1, extra2 uint8) bool {
		f := NewFenwick(0)
		f.Grow(len(ws))
		for i, w := range ws {
			f.Set(i, int64(w))
		}
		f.Grow(len(ws)) // no-op
		f.Grow(len(ws) + int(extra1))
		f.Grow(len(ws)) // shrink requests are no-ops
		n := len(ws) + int(extra1) + int(extra2)
		f.Grow(n)
		var want int64
		for i, w := range ws {
			if f.Weight(i) != int64(w) {
				return false
			}
			want += int64(w)
		}
		for i := len(ws); i < n; i++ {
			if f.Weight(i) != 0 {
				return false
			}
		}
		return f.Total() == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFenwickGrowAmortized pins the churn fix: growing one slot at a time
// reallocates only when the capacity doubles, so 4096 one-slot grows
// allocate O(log n) times instead of rebuilding the tree on every call.
func TestFenwickGrowAmortized(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		f := NewFenwick(1)
		for n := 2; n <= 4096; n++ {
			f.Grow(n)
			f.Set(n-1, int64(n%7))
		}
	})
	if allocs > 2*12+4 {
		t.Fatalf("4096 one-slot grows allocated %.0f times, want O(log n)", allocs)
	}
}

// TestFenwickGrownSamplesLikeFresh checks that a tree grown slot by slot,
// whose capacity runs past its size at zero weight, draws exactly the
// slots a tree built at its size with the same weights draws.
func TestFenwickGrownSamplesLikeFresh(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 17, 64, 100, 1000} {
		grown := NewFenwick(0)
		fresh := NewFenwick(n)
		for i := 0; i < n; i++ {
			grown.Grow(i + 1)
			w := int64(r.Intn(5))
			grown.Set(i, w)
			fresh.Set(i, w)
		}
		if grown.Total() == 0 {
			continue
		}
		a, b := NewRNG(int64(n)), NewRNG(int64(n))
		for k := 0; k < 2000; k++ {
			x, _ := grown.Sample(a)
			y, _ := fresh.Sample(b)
			if x != y {
				t.Fatalf("n=%d draw %d: grown tree drew slot %d, fresh tree %d", n, k, x, y)
			}
		}
	}
}

// TestFenwickSampleChiSquared is the distribution smoke test: the
// chi-squared statistic of Sample counts against expected frequencies must
// stay below the critical value, including after a Grow and a weight
// rewrite mid-stream (the urn engine's steady-state usage pattern).
func TestFenwickSampleChiSquared(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sample := func(f *Fenwick, n, trials int) []int {
		counts := make([]int, n)
		for i := 0; i < trials; i++ {
			idx, ok := f.Sample(r)
			if !ok {
				t.Fatal("sample failed with positive total")
			}
			counts[idx]++
		}
		return counts
	}
	chi2 := func(counts []int, f *Fenwick, trials int) float64 {
		var stat float64
		total := float64(f.Total())
		for i, c := range counts {
			w := float64(f.Weight(i))
			if w == 0 {
				if c != 0 {
					t.Fatalf("zero-weight slot %d sampled %d times", i, c)
				}
				continue
			}
			expect := w / total * float64(trials)
			d := float64(c) - expect
			stat += d * d / expect
		}
		return stat
	}

	const trials = 100000
	f := NewFenwick(6)
	for i, w := range []int64{5, 1, 0, 7, 2, 10} {
		f.Set(i, w)
	}
	// 5 positive-weight cells -> 4 degrees of freedom; chi2 critical value
	// at alpha = 0.001 is 18.47.
	if stat := chi2(sample(f, 6, trials), f, trials); stat > 18.47 {
		t.Errorf("chi-squared = %.2f > 18.47 (df=4, alpha=0.001)", stat)
	}

	// Grow and rewrite the weights, as the urn's pair bookkeeping does, and
	// re-verify: 8 positive cells -> df=7, critical value 24.32.
	f.Grow(9)
	for i, w := range []int64{1, 2, 3, 4, 0, 4, 3, 2, 1} {
		f.Set(i, w)
	}
	if stat := chi2(sample(f, 9, trials), f, trials); stat > 24.32 {
		t.Errorf("post-grow chi-squared = %.2f > 24.32 (df=7, alpha=0.001)", stat)
	}
}

func TestFenwickNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	f := NewFenwick(1)
	f.Add(0, -1)
}

func TestSetBasics(t *testing.T) {
	s := NewSet[int]()
	for _, v := range []int{1, 2, 3, 2} {
		s.Add(v)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	s.Remove(2)
	if s.Has(2) || !s.Has(1) || !s.Has(3) {
		t.Fatal("membership wrong after remove")
	}
	s.Remove(42) // no-op
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
}

func TestSetSampleUniform(t *testing.T) {
	s := NewSet[string]()
	s.Add("a")
	s.Add("b")
	s.Add("c")
	s.Remove("b")
	r := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const trials = 60000
	for i := 0; i < trials; i++ {
		v, ok := s.Sample(r)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[v]++
	}
	if counts["b"] != 0 {
		t.Fatal("removed element sampled")
	}
	for _, k := range []string{"a", "c"} {
		if math.Abs(float64(counts[k])-trials/2) > 4*math.Sqrt(trials/2) {
			t.Errorf("element %q sampled %d times, want ~%d", k, counts[k], trials/2)
		}
	}
}

func TestSetSampleEmpty(t *testing.T) {
	s := NewSet[int]()
	if _, ok := s.Sample(rand.New(rand.NewSource(1))); ok {
		t.Fatal("sampling empty set should fail")
	}
}

func TestSetChurnProperty(t *testing.T) {
	f := func(ops []int16) bool {
		s := NewSet[int16]()
		ref := map[int16]bool{}
		for _, op := range ops {
			if op >= 0 {
				s.Add(op)
				ref[op] = true
			} else {
				s.Remove(-op)
				delete(ref, -op)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for v := range ref {
			if !s.Has(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// indexedSet is the reference of TestSetMatchesIndexedReference: a set
// that always indexes its items in a map, removing by swap-with-last.
type indexedSet struct {
	items []int
	index map[int]int
}

func (s *indexedSet) add(v int) {
	if _, ok := s.index[v]; !ok {
		s.index[v] = len(s.items)
		s.items = append(s.items, v)
	}
}

func (s *indexedSet) remove(v int) {
	i, ok := s.index[v]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.index[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.index, v)
}

// TestSetMatchesIndexedReference checks that a Set keeps exactly the item
// order of an always-indexed set, the order Sample draws by, through
// random adds, removes, clears and replaces that take it past smallSet
// and back, scanning and indexed alike.
func TestSetMatchesIndexedReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var s Set[int]
		ref := &indexedSet{index: map[int]int{}}
		domain := 4 + r.Intn(4*smallSet)
		for op := 0; op < 2000; op++ {
			v := r.Intn(domain)
			switch k := r.Intn(100); {
			case k < 50:
				s.Add(v)
				ref.add(v)
			case k < 96:
				s.Remove(v)
				ref.remove(v)
			case k < 98:
				s.Clear()
				ref.items, ref.index = ref.items[:0], map[int]int{}
			default:
				items := r.Perm(domain)[:r.Intn(domain)]
				s.Replace(items)
				ref.items, ref.index = nil, map[int]int{}
				for _, x := range items {
					ref.add(x)
				}
			}
			if !slices.Equal(s.Items(), ref.items) {
				t.Fatalf("trial %d op %d: items %v, reference %v", trial, op, s.Items(), ref.items)
			}
			probe := r.Intn(domain)
			if _, want := ref.index[probe]; s.Has(probe) != want {
				t.Fatalf("trial %d op %d: Has(%d) = %v", trial, op, probe, !want)
			}
		}
	}
}

// TestFenwickCachedTotal checks the running total and the single-descent
// Sample against a plain weight array over random Add/Set/Grow sequences:
// Total must equal the sum of the weights after every operation, and
// Sample must pick the slot a linear prefix scan picks for the same draw.
func TestFenwickCachedTotal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		model := make([]int64, r.Intn(5))
		f := NewFenwick(len(model))
		for op := 0; op < 300; op++ {
			switch k := r.Intn(10); {
			case k == 0:
				n := len(model) + r.Intn(9)
				f.Grow(n)
				for len(model) < n {
					model = append(model, 0)
				}
			case len(model) == 0:
				continue
			case k < 5:
				i := r.Intn(len(model))
				w := r.Int63n(50)
				f.Set(i, w)
				model[i] = w
			default:
				i := r.Intn(len(model))
				d := r.Int63n(41) - 20
				if model[i]+d < 0 {
					d = -model[i]
				}
				f.Add(i, d)
				model[i] += d
			}
			var sum int64
			for _, w := range model {
				sum += w
			}
			if f.Total() != sum {
				t.Fatalf("trial %d op %d: Total = %d, weights sum to %d", trial, op, f.Total(), sum)
			}
			seed := r.Int63()
			got, ok := f.Sample(NewRNG(seed))
			if ok != (sum > 0) {
				t.Fatalf("trial %d op %d: Sample ok = %v with total %d", trial, op, ok, sum)
			}
			if !ok {
				continue
			}
			target := NewRNG(seed).Int63n(sum)
			want := 0
			for acc := model[0]; acc <= target; acc += model[want] {
				want++
			}
			if got != want {
				t.Fatalf("trial %d op %d: Sample = %d, prefix scan picks %d (weights %v)",
					trial, op, got, want, model)
			}
		}
	}
}
