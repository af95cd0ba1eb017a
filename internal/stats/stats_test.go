package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("std = %v", s.Std)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty sample")
	}
}

// TestSummarizeLargeMagnitudeLowVariance is the regression test for the
// variance formula: E[x^2] - mean^2 cancels catastrophically for samples
// like step counts near 10^8 (squares ~10^16, the edge of float64
// precision) and reported Std = 0. The two-pass sum of squared deviations
// is exact here: {x, x+1, x+2} has variance 2/3 regardless of x.
func TestSummarizeLargeMagnitudeLowVariance(t *testing.T) {
	const base = 1e8
	s := Summarize([]float64{base, base + 1, base + 2})
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-6 {
		t.Fatalf("std = %v, want %v (catastrophic cancellation)", s.Std, want)
	}
	// Zero-variance samples at large magnitude must stay exactly 0.
	if s := Summarize([]float64{1e15, 1e15, 1e15}); s.Std != 0 {
		t.Fatalf("constant sample std = %v, want 0", s.Std)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Fatalf("median interpolation = %v", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single sample = %v", got)
	}
}

func TestRateBounds(t *testing.T) {
	f := func(s, n uint8) bool {
		trials := int(n%50) + 1
		succ := int(s) % (trials + 1)
		r := NewRate(succ, trials)
		return r.Lo >= 0 && r.Hi <= 1 && r.Lo <= r.P && r.P <= r.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	r := NewRate(95, 100)
	if r.Lo < 0.85 || r.Hi > 0.99 {
		t.Fatalf("interval too loose: %v", r)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3x^2 has slope 2.
	xs := []float64{10, 20, 40, 80}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	slope, err := LogLogSlope(xs, ys)
	if err != nil || math.Abs(slope-2) > 1e-9 {
		t.Fatalf("slope = %v, err = %v", slope, err)
	}
	if _, err := LogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short sample accepted")
	}
	if _, err := LogLogSlope([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Fatal("negative values accepted")
	}
}

func TestKS(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	draw := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64() * scale
		}
		return xs
	}
	if d, p := KS(draw(2000, 1), draw(2000, 1)); p < 0.01 || d > 0.05 {
		t.Errorf("same law rejected: D=%.4f p=%.4g", d, p)
	}
	if d, p := KS(draw(2000, 1), draw(2000, 1.2)); p > 1e-3 {
		t.Errorf("different laws accepted: D=%.4f p=%.4g", d, p)
	}
	if d, p := KS([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 || p != 1 {
		t.Errorf("identical samples: D=%v p=%v", d, p)
	}
}

func TestTwoProportionZ(t *testing.T) {
	if z := TwoProportionZ(500, 1000, 500, 1000); z != 0 {
		t.Errorf("equal rates: z=%v", z)
	}
	if z := TwoProportionZ(600, 1000, 500, 1000); z < 4 || z > 5 {
		t.Errorf("0.6 vs 0.5 over 1000 each: z=%v", z)
	}
	if z := TwoProportionZ(10, 10, 20, 20); z != 0 {
		t.Errorf("all successes: z=%v", z)
	}
}
