package sim_test

import (
	"math/rand"
	"testing"

	"shapesol/internal/core"
	"shapesol/internal/grid"
	"shapesol/internal/rules"
	"shapesol/internal/sim"
)

// checkMatchesLookup compares NewTableProtocol's interned index with
// rules.Table.Lookup, the reference, over every state x port x state x
// port x edge of tb plus one state the table does not know. It returns
// how many lookups matched a rule, and how many of those matched mirrored.
func checkMatchesLookup(t *testing.T, tb *rules.Table) (effective, mirrored int) {
	t.Helper()
	p := sim.NewTableProtocol(tb)
	states := append(tb.States(), "not-in-table")
	for _, a := range states {
		for pa := grid.Dir(0); pa < grid.NumDirs; pa++ {
			for _, b := range states {
				for pb := grid.Dir(0); pb < grid.NumDirs; pb++ {
					for _, edge := range []bool{false, true} {
						wa, wb, we, weff := a, b, edge, false
						if out, swapped, ok := tb.Lookup(a, pa, b, pb, edge); ok {
							wa, wb, we, weff = out.A, out.B, out.Edge, true
							effective++
							if swapped {
								wa, wb = out.B, out.A
								mirrored++
							}
						}
						ga, gb, ge, geff := p.Interact(a, b, pa, pb, edge)
						if ga != wa || gb != wb || ge != we || geff != weff {
							t.Fatalf("%s: (%s,%v),(%s,%v),%v = (%s,%s,%v,%v), Lookup gives (%s,%s,%v,%v)",
								tb.Name(), a, pa, b, pb, edge, ga, gb, ge, geff, wa, wb, we, weff)
						}
					}
				}
			}
		}
	}
	return effective, mirrored
}

// TestTableProtocolMatchesLookup checks the interned index on every rule
// table of internal/core, then on random tables, which (unlike the
// paper's) hold self-mirrored rules with asymmetric outcomes and rules
// stored in both orientations: there a forward match must win over a
// mirrored one.
func TestTableProtocolMatchesLookup(t *testing.T) {
	for _, tb := range []*rules.Table{
		core.LineTable(), core.SimpleLineTable(), core.SquareTable(), core.Square2Table(),
		core.LineReplicationTable(), core.NoLeaderLineReplicationTable(),
	} {
		if effective, mirrored := checkMatchesLookup(t, tb); effective == 0 || mirrored == 0 {
			t.Fatalf("%s: domain exercised %d effective and %d mirrored lookups", tb.Name(), effective, mirrored)
		}
	}
	r := rand.New(rand.NewSource(5))
	states := []rules.State{"a", "b", "c", "d"}
	pick := func() rules.State { return states[r.Intn(len(states))] }
	for trial := 0; trial < 50; trial++ {
		tb := rules.NewTable("random", "a")
		for i := 0; i < 40; i++ {
			// Add rejects conflicting and ineffective candidates; the rest
			// make up the table.
			_ = tb.Add(pick(), grid.Dir(r.Intn(grid.NumDirs)), pick(), grid.Dir(r.Intn(grid.NumDirs)),
				r.Intn(2) == 1, pick(), pick(), r.Intn(2) == 1)
		}
		checkMatchesLookup(t, tb)
	}
}
