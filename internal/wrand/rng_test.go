package wrand

import (
	"math/rand"
	"testing"
)

// TestRNGDeterministic pins that two RNGs with the same seed emit the
// same stream across the method set the engines use.
func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Int63n(1<<40), b.Int63n(1<<40); x != y {
			t.Fatalf("draw %d: Int63n diverged (%d vs %d)", i, x, y)
		}
		if x, y := a.Intn(97), b.Intn(97); x != y {
			t.Fatalf("draw %d: Intn diverged (%d vs %d)", i, x, y)
		}
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: Float64 diverged (%v vs %v)", i, x, y)
		}
	}
}

// TestRNGStateRoundTrip is the property the snapshot subsystem rests on:
// exporting the state mid-stream and reinstalling it into a fresh
// generator continues the exact sequence.
func TestRNGStateRoundTrip(t *testing.T) {
	a := NewRNG(7)
	for i := 0; i < 123; i++ {
		a.Int63()
	}
	st := a.State()
	b := NewRNG(0) // different seed: the state must fully override it
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if x, y := a.Int63n(1000), b.Int63n(1000); x != y {
			t.Fatalf("draw %d after restore: %d vs %d", i, x, y)
		}
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d after restore: %v vs %v", i, x, y)
		}
	}
}

// TestRNGRejectsZeroState guards against installing xoshiro's absorbing
// all-zero state from a corrupt snapshot.
func TestRNGRejectsZeroState(t *testing.T) {
	r := NewRNG(1)
	if err := r.SetState(RNGState{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
	// The generator must remain usable after the rejected install.
	r.Int63()
}

// TestRNGSeedNeverZeroState checks the splitmix seeding never lands on
// the invalid state, including for seed 0.
func TestRNGSeedNeverZeroState(t *testing.T) {
	for seed := int64(-3); seed <= 3; seed++ {
		if NewRNG(seed).State().zero() {
			t.Fatalf("seed %d produced the all-zero state", seed)
		}
	}
}

// TestRNGUniformity is a coarse chi-squared sanity check that the
// Intn distribution is not grossly skewed (the samplers' correctness
// tests do the fine-grained statistics).
func TestRNGUniformity(t *testing.T) {
	const buckets, draws = 10, 100_000
	r := NewRNG(99)
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom: P(chi2 > 27.9) ~ 0.001.
	if chi2 > 27.9 {
		t.Fatalf("chi-squared %.1f too large for a uniform Intn", chi2)
	}
}

// TestSamplersAcceptStdRand pins that the data structures still work with
// a plain *rand.Rand (the Rand interface must not regress).
func TestSamplersAcceptStdRand(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := NewFenwick(4)
	f.Set(2, 5)
	if i, ok := f.Sample(r); !ok || i != 2 {
		t.Fatalf("Sample = %d, %v; want 2, true", i, ok)
	}
	s := NewSet[int]()
	s.Add(7)
	if v, ok := s.Sample(r); !ok || v != 7 {
		t.Fatalf("Set.Sample = %d, %v; want 7, true", v, ok)
	}
}

// TestSetReplace checks Replace installs items verbatim and rebuilds the
// index.
func TestSetReplace(t *testing.T) {
	s := NewSet[int]()
	s.Add(1)
	s.Add(2)
	s.Replace([]int{9, 4, 6})
	if s.Len() != 3 || !s.Has(4) || s.Has(1) {
		t.Fatalf("Replace left wrong contents: %v", s.Items())
	}
	if got := s.Items(); got[0] != 9 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("Replace broke order: %v", got)
	}
	s.Remove(4)
	if s.Len() != 2 || s.Has(4) {
		t.Fatal("index broken after Replace+Remove")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Replace accepted a duplicate")
		}
	}()
	s.Replace([]int{1, 1})
}

// TestRNGMatchesMathRand pins that RNG's own draw methods reproduce
// math/rand's algorithms exactly: an RNG and a *rand.Rand over an
// identically seeded xoshiro source must emit the same values, method by
// method and interleaved, for every bound class — 1, powers of two (the
// mask path), odd bounds (the rejection path), the 31-bit edge where
// Intn switches from Int31n to Int63n, and bounds above 2^62, where
// rejection happens on about every other draw.
func TestRNGMatchesMathRand(t *testing.T) {
	bounds := []int64{
		1, 2, 4, 1 << 10, 1 << 30, 1 << 31, 1 << 40, 1 << 62,
		3, 7, 97, 1_000_003, 1<<31 - 1, 1<<31 + 1, 1<<53 + 1,
		1<<62 + 1, 3 << 61, 1<<63 - 1,
	}
	for seed := int64(0); seed < 4; seed++ {
		src := &xoshiro{}
		src.Seed(seed)
		ref := rand.New(src)
		got := NewRNG(seed)
		check := func(what string, n int64, g, w int64) {
			t.Helper()
			if g != w {
				t.Fatalf("seed %d: %s(%d) = %d, math/rand draws %d", seed, what, n, g, w)
			}
		}
		for _, n := range bounds {
			for i := 0; i < 200; i++ {
				check("Int63n", n, got.Int63n(n), ref.Int63n(n))
				if int64(int(n)) == n {
					check("Intn", n, int64(got.Intn(int(n))), int64(ref.Intn(int(n))))
				}
				if n <= 1<<31-1 {
					check("Int31n", n, int64(got.Int31n(int32(n))), int64(ref.Int31n(int32(n))))
				}
				check("Int63", 0, got.Int63(), ref.Int63())
				check("Int31", 0, int64(got.Int31()), int64(ref.Int31()))
				if g, w := got.Float64(), ref.Float64(); g != w {
					t.Fatalf("seed %d: Float64 = %v, math/rand draws %v", seed, g, w)
				}
			}
		}
		// The embedded methods (ExpFloat64 here, as the fault clock uses
		// it) draw from the same source, so they stay in step too.
		if g, w := got.ExpFloat64(), ref.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 = %v, math/rand draws %v", seed, g, w)
		}
		check("Int63n after ExpFloat64", 1000, got.Int63n(1000), ref.Int63n(1000))
	}
}

// TestRNGRejectsBadBounds pins math/rand's panics on non-positive bounds.
func TestRNGRejectsBadBounds(t *testing.T) {
	r := NewRNG(1)
	for name, draw := range map[string]func(){
		"Int63n": func() { r.Int63n(0) },
		"Int31n": func() { r.Int31n(-1) },
		"Intn":   func() { r.Intn(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-positive bound", name)
				}
			}()
			draw()
		}()
	}
}
