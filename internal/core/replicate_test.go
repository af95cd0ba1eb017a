package core

import (
	"context"
	"testing"

	"shapesol/internal/grid"
)

func lShape() *grid.Shape {
	// (0,0),(1,0),(2,0),(0,1): R_G is 3x2, so replication needs
	// 2*6-4 = 8 free nodes.
	return grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2}, grid.Pos{Y: 1})
}

func TestReplicationLShape(t *testing.T) {
	g := lShape()
	w, err := NewReplicationWorld(g, 8, 3, 150_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ReplicationOutcomeOf(context.Background(), g, w, w.Run())
	if !out.Done {
		t.Fatalf("leaders did not finish: %+v", out)
	}
	if out.Copies != 2 {
		t.Fatalf("copies = %d, want 2 (%+v)", out.Copies, out)
	}
}

func TestReplicationLine(t *testing.T) {
	// A 1x3 line: R_G == G, so squaring is a no-op and waste is minimal.
	g := grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2})
	w, err := NewReplicationWorld(g, 3, 8, 150_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ReplicationOutcomeOf(context.Background(), g, w, w.Run())
	if !out.Done || out.Copies != 2 {
		t.Fatalf("%+v", out)
	}
}

func TestReplicationWithSlack(t *testing.T) {
	// Extra free nodes must not corrupt the copies.
	g := lShape()
	w, err := NewReplicationWorld(g, 12, 21, 150_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ReplicationOutcomeOf(context.Background(), g, w, w.Run())
	if !out.Done || out.Copies != 2 {
		t.Fatalf("%+v", out)
	}
}

func TestReplicationSingleCell(t *testing.T) {
	g := grid.ShapeOf(grid.Pos{})
	w, err := NewReplicationWorld(g, 2, 5, 50_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ReplicationOutcomeOf(context.Background(), g, w, w.Run())
	if !out.Done || out.Copies != 2 {
		t.Fatalf("%+v", out)
	}
}

// TestReplicationTwoExactCopies runs each small shape over a block of
// seeds with the paper's free count, 2|R_G|-|G|: every run must finish
// with two exact copies. The leader cuts the seam top-down while both
// halves are still one rigid component, so a latent activation that
// re-bonded a cut seam pair let the original side's cleanup wave cross
// into the replica and shed one of its cells.
func TestReplicationTwoExactCopies(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *grid.Shape
	}{
		{"square2x2", grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{Y: 1}, grid.Pos{X: 1, Y: 1})},
		{"l3", grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 1, Y: 1})},
		{"l4", lShape()},
		{"bar3", grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			free := 2*tc.g.EnclosingRect().Size() - tc.g.Size()
			for seed := int64(0); seed < 20; seed++ {
				w, err := NewReplicationWorld(tc.g, free, seed, 500_000_000, nil)
				if err != nil {
					t.Fatal(err)
				}
				out := ReplicationOutcomeOf(context.Background(), tc.g, w, w.Run())
				if !out.Done || out.Copies != 2 {
					t.Fatalf("seed %d: %+v, want done with 2 copies", seed, out)
				}
			}
		})
	}
}
