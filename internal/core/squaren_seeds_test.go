package core

import (
	"context"
	"testing"
)

// TestSquareKnowingNManySeeds is the regression guard for the two
// deadlocks fixed during development (cross-parent replica bonds stranding
// the seed, and premature fertility of partially released rows): every
// seed must terminate with the exact square at the tight n = d^2 budget.
func TestSquareKnowingNManySeeds(t *testing.T) {
	for d := 3; d <= 4; d++ {
		for seed := int64(0); seed < 10; seed++ {
			w := NewSquareKnowingNWorld(d*d, d, seed, 30_000_000, nil)
			out := SquareKnowingNOutcomeOf(context.Background(), d, w, w.Run())
			if !out.Halted || !out.Square {
				t.Fatalf("d=%d seed=%d: halted=%v square=%v steps=%d",
					d, seed, out.Halted, out.Square, out.Steps)
			}
		}
	}
}
