package core

import (
	"context"
	"testing"

	"shapesol/internal/sim"
)

func TestSquareKnowingNBuildsExactSquares(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{1, 1}, {4, 2}, {9, 3}, {16, 4},
	} {
		w := NewSquareKnowingNWorld(tc.n, tc.d, int64(17*tc.n+tc.d), 80_000_000, nil)
		out := SquareKnowingNOutcomeOf(context.Background(), tc.d, w, w.Run())
		if !out.Halted {
			t.Fatalf("n=%d d=%d: leader did not halt in %d steps", tc.n, tc.d, out.Steps)
		}
		if !out.Square {
			t.Fatalf("n=%d d=%d: leader component is not a %dx%d square (spans %d)",
				tc.n, tc.d, tc.d, tc.d, out.Spanned)
		}
	}
}

func TestSquareKnowingNWithSlack(t *testing.T) {
	// Extra free nodes beyond d^2 must be left over, not absorbed.
	w := NewSquareKnowingNWorld(14, 3, 5, 80_000_000, nil)
	out := SquareKnowingNOutcomeOf(context.Background(), 3, w, w.Run())
	if !out.Halted || !out.Square {
		t.Fatalf("halted=%v square=%v spanned=%d", out.Halted, out.Square, out.Spanned)
	}
}

func TestSquareKnowingNExactBudgetSeeds(t *testing.T) {
	// n = d^2 exactly is the paper's tight case: hostages under the seed
	// or replicas must be released and reused. Run a few seeds.
	for seed := int64(0); seed < 5; seed++ {
		w := NewSquareKnowingNWorld(9, 3, seed, 120_000_000, nil)
		out := SquareKnowingNOutcomeOf(context.Background(), 3, w, w.Run())
		if !out.Halted || !out.Square {
			t.Fatalf("seed %d: halted=%v square=%v spanned=%d steps=%d",
				seed, out.Halted, out.Square, out.Spanned, out.Steps)
		}
	}
}

func TestSquareKnowingNEngineInvariants(t *testing.T) {
	proto := &SquareKnowingN{D: 3}
	w := sim.New(9, proto, sim.Options{Seed: 77, MaxSteps: 60_000_000, StopWhenAnyHalted: true})
	for w.HaltedCount() == 0 && w.Steps() < 60_000_000 {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if w.Steps()%50_000 == 0 {
			if err := w.Validate(); err != nil {
				t.Fatalf("invariants at step %d: %v", w.Steps(), err)
			}
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}
