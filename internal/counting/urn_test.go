package counting

import (
	"math"
	"testing"

	"shapesol/internal/stats"
)

// TestUrnMatchesExactUpperBound is the statistical-equivalence check of the
// urn engine: the exact pop scheduler and the urn-compressed one must agree
// on Counting-Upper-Bound aggregates over a shared seed set. Trajectories
// differ per seed (the two engines consume randomness differently), so the
// comparison is distributional: identical halting verdicts on every trial,
// and mean steps-to-halt / mean r0 within a Welch-style confidence bound.
func TestUrnMatchesExactUpperBound(t *testing.T) {
	const n, b, trials = 120, 5, 60
	var exSteps, urSteps, exR0, urR0 []float64
	for seed := int64(0); seed < trials; seed++ {
		ew := NewUpperBoundWorld(n, b, seed, 0, nil)
		ex := UpperBoundOutcomeOf(b, ew, ew.Run())
		uw := NewUpperBoundUrnWorld(n, b, seed, 0, nil)
		ur := UpperBoundUrnOutcomeOf(b, uw, uw.Run())
		if !ex.Success || !ur.Success {
			t.Fatalf("seed %d: halting verdicts differ or failed: exact=%+v urn=%+v", seed, ex, ur)
		}
		exSteps = append(exSteps, float64(ex.Steps))
		urSteps = append(urSteps, float64(ur.Steps))
		exR0 = append(exR0, float64(ex.R0))
		urR0 = append(urR0, float64(ur.R0))
	}
	assertMeansAgree(t, "steps", exSteps, urSteps)
	assertMeansAgree(t, "r0", exR0, urR0)
}

// assertMeansAgree fails when the two sample means differ by more than 4
// standard errors of the difference (Welch).
func assertMeansAgree(t *testing.T, what string, xs, ys []float64) {
	t.Helper()
	sx, sy := stats.Summarize(xs), stats.Summarize(ys)
	se := math.Sqrt(sx.Std*sx.Std/float64(sx.N) + sy.Std*sy.Std/float64(sy.N))
	if diff := math.Abs(sx.Mean - sy.Mean); diff > 4*se {
		t.Errorf("%s means disagree: exact %.1f vs urn %.1f (|diff| %.1f > 4*SE %.1f)",
			what, sx.Mean, sy.Mean, diff, 4*se)
	}
}

// TestUrnUpperBoundLargeN exercises the regime the exact engine cannot
// reach: n = 200k halts with the Theorem 1 guarantee while executing only
// O(n) effective interactions out of Theta(n^2 log n) simulated steps.
func TestUrnUpperBoundLargeN(t *testing.T) {
	const n = 200_000
	w := NewUpperBoundUrnWorld(n, 5, 1, 0, nil)
	out := UpperBoundUrnOutcomeOf(5, w, w.Run())
	if !out.Success {
		t.Fatalf("n=%d run failed: %+v", n, out)
	}
	nn := float64(n)
	if low := int64(nn * nn); out.Steps < low {
		t.Errorf("steps = %d, implausibly below n^2 = %d", out.Steps, low)
	}
	if out.R0 < int64(n)/2 || out.R0 > int64(n) {
		t.Errorf("r0 = %d outside [n/2, n]", out.R0)
	}
}
