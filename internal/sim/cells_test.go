package sim

import (
	"math"
	"math/rand"
	"testing"

	"shapesol/internal/grid"
)

// TestCellTableMatchesMap drives a cell table and a map keyed by grid.Pos
// through the same random adds, removes and lookups, and compares every
// answer and the count. Each round works in a window of cells around a
// base point, near the origin, at negative coordinates, far out and at
// the ends of the int range, so packed keys wrap on every axis; the window
// spans far fewer than 2^21 cells, as a body does. The rounds grow the
// table from empty through several resizes and remove most of it again,
// so backward-shift deletion runs on long probe runs.
func TestCellTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bases := []grid.Pos{
		{},
		{X: -40, Y: -3, Z: -17},
		{X: 1 << 40, Y: -(1 << 35), Z: 123456789},
		{X: math.MaxInt64 - 20, Y: math.MinInt64 + 5, Z: -(1 << 21)},
		{X: 1<<21 - 10, Y: -(1<<21 - 10)},
	}
	for _, base := range bases {
		for _, span := range []int{3, 12, 40} {
			var tab cellTable
			ref := map[grid.Pos]int{}
			cell := func() grid.Pos {
				return base.Add(grid.Pos{X: r.Intn(span) - span/2, Y: r.Intn(span) - span/2, Z: r.Intn(4) - 2})
			}
			for op := 0; op < 20_000; op++ {
				p := cell()
				switch k := r.Intn(10); {
				case k < 5 && op < 12_000, k < 2:
					id := r.Intn(1 << 20)
					prev, taken := tab.add(p, id)
					if old, ok := ref[p]; ok != taken || (ok && prev != old) {
						t.Fatalf("base %v: add %v = (%d, %v), map holds (%d, %v)", base, p, prev, taken, old, ok)
					}
					if !taken {
						ref[p] = id
					}
				case k < 8:
					tab.remove(p)
					delete(ref, p)
				default:
					got, ok := tab.get(p)
					if want, wok := ref[p]; ok != wok || got != want || tab.has(p) != wok {
						t.Fatalf("base %v: get %v = (%d, %v), map holds (%d, %v)", base, p, got, ok, want, wok)
					}
				}
				if tab.n != len(ref) {
					t.Fatalf("base %v: table holds %d cells, map %d", base, tab.n, len(ref))
				}
			}
			for p, id := range ref {
				if got, ok := tab.get(p); !ok || got != id {
					t.Fatalf("base %v: lost %v -> %d (got %d, %v)", base, p, id, got, ok)
				}
			}
			for p := range ref {
				tab.remove(p)
			}
			if tab.n != 0 || tab.has(base) {
				t.Fatalf("base %v: table not empty after removing every cell", base)
			}
		}
	}
}

// TestCellKeyAliasing pins the limit of the packed keys: cells that differ
// by a nonzero multiple of 2^21 on an axis share a key, and cells closer
// than that on every axis never do.
func TestCellKeyAliasing(t *testing.T) {
	p := grid.Pos{X: -5, Y: 7, Z: 3}
	for _, d := range []grid.Pos{{X: maxNodes}, {Y: -maxNodes}, {Z: 3 * maxNodes}, {X: maxNodes, Y: maxNodes}} {
		if cellKey(p) != cellKey(p.Add(d)) {
			t.Errorf("%v and %v have different keys", p, p.Add(d))
		}
	}
	for _, d := range []grid.Pos{{X: maxNodes - 1}, {Y: 1 - maxNodes}, {Z: 1}, {X: maxNodes / 2, Y: -maxNodes / 2, Z: maxNodes - 1}} {
		if cellKey(p) == cellKey(p.Add(d)) {
			t.Errorf("%v and %v share a key", p, p.Add(d))
		}
	}
	var tab cellTable
	tab.add(p, 1)
	if prev, taken := tab.add(p.Add(grid.Pos{X: maxNodes}), 2); !taken || prev != 1 {
		t.Fatalf("an aliasing cell was added beside node 1: (%d, %v)", prev, taken)
	}
}
