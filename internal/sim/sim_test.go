package sim

import (
	"math"
	"testing"

	"shapesol/internal/grid"
	"shapesol/internal/rules"
)

// glueProtocol bonds everything to everything: a maximally aggressive
// aggregator used to stress merging and latent activation.
type glueProtocol struct{}

func (glueProtocol) InitialState(id, n int) string { return "q" }

func (glueProtocol) Interact(a, b string, pa, pb grid.Dir, bonded bool) (string, string, bool, bool) {
	if bonded {
		return a, b, true, false
	}
	return a, b, true, true
}

func (glueProtocol) Halted(string) bool { return false }

// churnProtocol flips bonds pseudo-deterministically from integer states to
// exercise merge, split, and latent transitions together.
type churnProtocol struct{}

func (churnProtocol) InitialState(id, n int) int { return id }

func (churnProtocol) Interact(a, b int, pa, pb grid.Dir, bonded bool) (int, int, bool, bool) {
	bond := (a+b)%3 != 0
	return a + 1, b + 1, bond, true
}

func (churnProtocol) Halted(int) bool { return false }

// inertProtocol never does anything; used to freeze configurations for
// distribution tests.
type inertProtocol struct{}

func (inertProtocol) InitialState(id, n int) string { return "q" }

func (inertProtocol) Interact(a, b string, pa, pb grid.Dir, bonded bool) (string, string, bool, bool) {
	return a, b, bonded, false
}

func (inertProtocol) Halted(string) bool { return false }

// lineTable is the simplified spanning-line protocol of Section 4.1:
// (L, r), (q0, l), 0 -> (q1, L, 1).
func lineTable(t *testing.T) *rules.Table {
	t.Helper()
	tb := rules.NewTable("line-simple", "q0")
	tb.SetLeader("L")
	tb.MustAdd("L", grid.PX, "q0", grid.NX, false, "q1", "L", true)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestGlueAggregatesEverything(t *testing.T) {
	const n = 40
	w := New(n, glueProtocol{}, Options{Seed: 1, MaxSteps: 400_000})
	for w.NumComponents() > 1 && w.Steps() < 400_000 {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if w.NumComponents() != 1 {
		t.Fatalf("still %d components after %d steps", w.NumComponents(), w.Steps())
	}
	slot, size := w.LargestComponent()
	if size != n {
		t.Fatalf("largest component has %d nodes, want %d", size, n)
	}
	shape := w.ComponentShape(slot)
	if shape.Size() != n {
		t.Fatalf("shape has %d cells, want %d", shape.Size(), n)
	}
	if !shape.Valid() {
		t.Fatal("glued component is not a valid bond-connected shape")
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestChurnPreservesInvariants(t *testing.T) {
	w := New(24, churnProtocol{}, Options{Seed: 7})
	for i := 0; i < 30_000; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%1000 == 999 {
			if err := w.Validate(); err != nil {
				t.Fatalf("invariants after %d steps: %v", i+1, err)
			}
		}
	}
	if w.splits == 0 || w.merges == 0 {
		t.Fatalf("churn exercised merges=%d splits=%d; expected both > 0", w.merges, w.splits)
	}
}

func TestChurnPreservesInvariants3D(t *testing.T) {
	w := New(16, churnProtocol{}, Options{Seed: 11, Dim: 3})
	for i := 0; i < 15_000; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%1000 == 999 {
			if err := w.Validate(); err != nil {
				t.Fatalf("invariants after %d steps: %v", i+1, err)
			}
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) (int64, int64, string) {
		w := New(20, churnProtocol{}, Options{Seed: seed})
		for i := 0; i < 5000; i++ {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		slot, _ := w.LargestComponent()
		sum := int64(0)
		for id := 0; id < 20; id++ {
			sum = sum*31 + int64(w.State(id))
		}
		cells := int64(0)
		if slot >= 0 {
			cells = int64(w.ComponentShape(slot).Size())
		}
		return sum, cells, w.ComponentShape(slot).Normalize().Cells()[0].String()
	}
	a1, b1, c1 := run(42)
	a2, b2, c2 := run(42)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatal("same seed produced different executions")
	}
	a3, _, _ := run(43)
	if a1 == a3 {
		t.Log("different seeds produced identical state hash (possible but unlikely)")
	}
}

func TestLineProtocolBuildsStraightLine(t *testing.T) {
	const n = 12
	w := New(n, NewTableProtocol(lineTable(t)), Options{Seed: 3})
	for w.Steps() < 2_000_000 {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if _, size := w.LargestComponent(); size == n {
			break
		}
	}
	slot, size := w.LargestComponent()
	if size != n {
		t.Fatalf("line spans %d of %d nodes after %d steps", size, n, w.Steps())
	}
	shape := w.ComponentShape(slot)
	h, v, _ := shape.Dims()
	if !((h == n && v == 1) || (h == 1 && v == n)) {
		t.Fatalf("shape dims %dx%d, want a straight %dx1 line", h, v, n)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunStopsWhenHalted(t *testing.T) {
	tb := rules.NewTable("halt-on-meet", "q0")
	tb.SetLeader("L")
	tb.SetHalting("H")
	for _, pl := range grid.Ports2D {
		for _, pq := range grid.Ports2D {
			tb.MustAdd("L", pl, "q0", pq, false, "H", "q1", false)
		}
	}
	w := New(5, NewTableProtocol(tb), Options{Seed: 1, StopWhenAnyHalted: true})
	res := w.Run()
	if res.Reason != ReasonHalted {
		t.Fatalf("reason = %v, want halted", res.Reason)
	}
	if w.HaltedCount() != 1 {
		t.Fatalf("halted count = %d, want 1", w.HaltedCount())
	}
}

func TestRunHaltWhenPredicate(t *testing.T) {
	w := New(6, inertProtocol{}, Options{Seed: 1, CheckEvery: 8})
	w.SetHaltWhen(func(w *World[string]) bool { return w.Steps() >= 24 })
	res := w.Run()
	if res.Reason != ReasonPredicate {
		t.Fatalf("reason = %v, want predicate", res.Reason)
	}
	if res.Steps != 24 {
		t.Fatalf("steps = %d, want 24 (predicate checked every 8)", res.Steps)
	}
}

// TestRunHaltWhenPredicateTrueAtEntry is the regression test for the
// entry-condition contract: a predicate already true at step 0 must stop
// Run immediately, not after the first CheckEvery window (and must not be
// masked by an earlier no-interaction stop).
func TestRunHaltWhenPredicateTrueAtEntry(t *testing.T) {
	w := New(6, inertProtocol{}, Options{Seed: 1, CheckEvery: 256})
	w.SetHaltWhen(func(w *World[string]) bool { return true })
	res := w.Run()
	if res.Reason != ReasonPredicate {
		t.Fatalf("reason = %v, want predicate", res.Reason)
	}
	if res.Steps != 0 {
		t.Fatalf("steps = %d, want 0 (predicate true at entry)", res.Steps)
	}

	// A single node has no permissible interaction at all; the entry check
	// must still see the predicate before Step can fail.
	w1 := New(1, inertProtocol{}, Options{Seed: 1})
	w1.SetHaltWhen(func(w *World[string]) bool { return true })
	if res := w1.Run(); res.Reason != ReasonPredicate {
		t.Fatalf("single-node reason = %v, want predicate", res.Reason)
	}

	// A predicate that becomes true only after the entry check must not be
	// masked by the scheduler running dry between CheckEvery windows.
	calls := 0
	w2 := New(1, inertProtocol{}, Options{Seed: 1})
	w2.SetHaltWhen(func(w *World[string]) bool { calls++; return calls >= 2 })
	if res := w2.Run(); res.Reason != ReasonPredicate {
		t.Fatalf("no-interaction masking: reason = %v, want predicate", res.Reason)
	}
}

func TestSingleNodeNoInteraction(t *testing.T) {
	w := New(1, glueProtocol{}, Options{Seed: 1})
	if _, err := w.Step(); err != ErrNoInteraction {
		t.Fatalf("err = %v, want ErrNoInteraction", err)
	}
}

// TestSamplingUniform verifies the scheduler's exact-uniformity claim on a
// frozen configuration with a known permissible set: a fully bonded 2x2
// square plus one free node in 2D gives 4 bond interactions and 8*4 = 32
// open-port pairs (all feasible), 36 equally likely selections.
func TestSamplingUniform(t *testing.T) {
	square := ComponentSpec[string]{Cells: []NodeSpec[string]{
		{State: "q", Pos: grid.Pos{X: 0, Y: 0}},
		{State: "q", Pos: grid.Pos{X: 1, Y: 0}},
		{State: "q", Pos: grid.Pos{X: 0, Y: 1}},
		{State: "q", Pos: grid.Pos{X: 1, Y: 1}},
	}}
	w, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{square}, Free: []string{"q"}},
		inertProtocol{}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.bonded.Len(); got != 4 {
		t.Fatalf("bonded pairs = %d, want 4", got)
	}
	if got := w.latent.Len(); got != 0 {
		t.Fatalf("latent pairs = %d, want 0", got)
	}

	const trials = 72_000
	const kinds = 36 // 4 bonds + 32 inter pairs
	type key struct {
		kind InteractionKind
		pp   PortPair
	}
	counts := make(map[key]int)
	for i := 0; i < trials; i++ {
		info, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		// Inter pairs are sampled in either order; canonicalize.
		counts[key{info.Kind, newPortPair(info.A, info.B)}]++
	}
	if len(counts) != kinds {
		t.Fatalf("observed %d distinct interactions, want %d", len(counts), kinds)
	}
	want := float64(trials) / kinds
	sd := math.Sqrt(want)
	for info, got := range counts {
		if math.Abs(float64(got)-want) > 6*sd {
			t.Errorf("interaction %+v selected %d times, want ~%.0f", info, got, want)
		}
	}
}

// TestCollisionRejected builds two 2x2 squares and checks that no feasible
// placement ever overlaps cells: after gluing them the union must have
// exactly 8 distinct cells.
func TestCollisionRejected(t *testing.T) {
	sq := func() ComponentSpec[string] {
		return ComponentSpec[string]{Cells: []NodeSpec[string]{
			{State: "q", Pos: grid.Pos{X: 0, Y: 0}},
			{State: "q", Pos: grid.Pos{X: 1, Y: 0}},
			{State: "q", Pos: grid.Pos{X: 0, Y: 1}},
			{State: "q", Pos: grid.Pos{X: 1, Y: 1}},
		}}
	}
	for seed := int64(0); seed < 20; seed++ {
		w, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{sq(), sq()}},
			glueProtocol{}, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for w.NumComponents() > 1 {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		slot, _ := w.LargestComponent()
		shape := w.ComponentShape(slot)
		if shape.Size() != 8 {
			t.Fatalf("seed %d: merged shape has %d cells, want 8", seed, shape.Size())
		}
		if !shape.Valid() {
			t.Fatalf("seed %d: merged shape invalid", seed)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFeasiblePlacementsOverlap checks a known-colliding alignment: a 2x2
// square's top-right node approaching via its left port the right port of
// the other square's bottom-right node must be rejected in exactly the
// orientation that would overlap.
func TestFeasiblePlacementsOverlap(t *testing.T) {
	sq := ComponentSpec[string]{Cells: []NodeSpec[string]{
		{State: "q", Pos: grid.Pos{X: 0, Y: 0}},
		{State: "q", Pos: grid.Pos{X: 1, Y: 0}},
		{State: "q", Pos: grid.Pos{X: 0, Y: 1}},
		{State: "q", Pos: grid.Pos{X: 1, Y: 1}},
	}}
	w, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{sq, sq}}, inertProtocol{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 = (1,0) of square A; node 7 = (1,1) of square B.
	pi := PortRef{Node: 1, Port: grid.PX}
	pj := PortRef{Node: 7, Port: grid.NX}
	placements := w.feasibleRotations(pi, pj)
	// dB = -x must map to -x: identity. Placing B's (1,1) at (2,0) puts
	// B's (0,1) onto A's (1,0)... that is node 1's own cell? B's cells map
	// to (1,-1),(2,-1),(1,0),(2,0): (1,0) collides with A. Infeasible.
	if len(placements) != 0 {
		t.Fatalf("expected collision rejection, got %d placements", len(placements))
	}
	// The same ports on a free node are feasible.
	w2, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{sq}, Free: []string{"q"}},
		inertProtocol{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	free := PortRef{Node: 4, Port: grid.NX}
	if got := len(w2.feasibleRotations(PortRef{Node: 1, Port: grid.PX}, free)); got != 1 {
		t.Fatalf("free-node placement count = %d, want 1", got)
	}
}

// scanPlacements is the reference of feasibleRotations and placement:
// every aligning rotation's isometry, kept when no node of pj's component
// lands on the position of a node of pi's. It compares positions pair by
// pair, reading neither component's cell table.
func scanPlacements[S comparable](w *World[S], pi, pj PortRef) []grid.Isometry {
	ca := w.comps[w.nodes[pi.Node].comp]
	cb := w.comps[w.nodes[pj.Node].comp]
	dA := w.worldDir(pi.Node, pi.Port)
	target := w.nodes[pi.Node].pos.Step(dA)
	dB := w.worldDir(pj.Node, pj.Port)
	var out []grid.Isometry
scan:
	for _, g := range w.rotsMapping[dB][dA.Opposite()] {
		iso := grid.Isometry{R: g, T: target.Sub(g.Apply(w.nodes[pj.Node].pos))}
		for _, b := range cb.nodes {
			mapped := iso.Apply(w.nodes[b].pos)
			for _, a := range ca.nodes {
				if w.nodes[a].pos == mapped {
					continue scan
				}
			}
		}
		out = append(out, iso)
	}
	return out
}

// TestLoneNodePlacementsMatchScan checks feasibleRotations, its lone-node
// shortcut and the cell tables behind its placement check against the
// full collision scan: on random 2D and 3D worlds mid-run, every open-port
// pair across two components (in both orders, lone or not) must get the
// same placements, in the same order. The churning worlds grow bodies of
// at least 8 nodes, whose tables have resized three times, and split them
// again, so the scan also covers tables that cells were removed from.
func TestLoneNodePlacementsMatchScan(t *testing.T) {
	for _, dim := range []int{2, 3} {
		lone, grownThenSplit := 0, int64(0)
		for seed := int64(0); seed < 8; seed++ {
			w := New(14, churnProtocol{}, Options{Dim: dim, Seed: seed})
			splitsWhenGrown := int64(-1)
			for round := 0; round < 40; round++ {
				for i := 0; i < 25; i++ {
					if _, err := w.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if _, size := w.LargestComponent(); size >= 8 && splitsWhenGrown < 0 {
					splitsWhenGrown = w.splits
				}
				slots := w.ComponentSlots()
				for _, x := range slots {
					for _, y := range slots {
						ca, cb := w.comps[x], w.comps[y]
						if x == y {
							continue
						}
						if (len(ca.nodes) == 1) != (len(cb.nodes) == 1) {
							lone++
						}
						for _, pi := range ca.open.Items() {
							for _, pj := range cb.open.Items() {
								var got []grid.Isometry
								for _, g := range w.feasibleRotations(pi, pj) {
									got = append(got, w.placement(pi, pj, g))
								}
								want := scanPlacements(w, pi, pj)
								if len(got) != len(want) {
									t.Fatalf("dim %d seed %d: %v-%v: %d placements, scan finds %d",
										dim, seed, pi, pj, len(got), len(want))
								}
								for k := range got {
									if got[k] != want[k] {
										t.Fatalf("dim %d seed %d: %v-%v: placement %d = %v, scan has %v",
											dim, seed, pi, pj, k, got[k], want[k])
									}
								}
							}
						}
					}
				}
			}
			if splitsWhenGrown >= 0 {
				grownThenSplit += w.splits - splitsWhenGrown
			}
		}
		if lone == 0 {
			t.Fatalf("dim %d: no lone node met a multi-node component", dim)
		}
		if grownThenSplit == 0 {
			t.Fatalf("dim %d: no body of 8 nodes grew and then split", dim)
		}
	}
}

func TestSplitReleasesParts(t *testing.T) {
	// A 1x3 line whose middle bond is cut must split into a 2-line and a
	// free node.
	line := ComponentSpec[string]{Cells: []NodeSpec[string]{
		{State: "a", Pos: grid.Pos{X: 0}},
		{State: "b", Pos: grid.Pos{X: 1}},
		{State: "c", Pos: grid.Pos{X: 2}},
	}}
	cutter := cutterProtocol{}
	w, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{line}}, cutter, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for w.NumComponents() == 1 {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", w.NumComponents())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, slot := range w.ComponentSlots() {
		sizes[w.ComponentSize(slot)] = true
	}
	if !sizes[1] || !sizes[2] {
		t.Fatalf("split sizes wrong: %v", sizes)
	}
}

// cutterProtocol cuts the bond between states b and c exactly once.
type cutterProtocol struct{}

func (cutterProtocol) InitialState(id, n int) string { return "x" }

func (cutterProtocol) Interact(a, b string, pa, pb grid.Dir, bonded bool) (string, string, bool, bool) {
	if !bonded {
		return a, b, bonded, false
	}
	if (a == "b" && b == "c") || (a == "c" && b == "b") {
		return "b2", "c2", false, true
	}
	return a, b, bonded, false
}

func (cutterProtocol) Halted(string) bool { return false }

func TestConfigErrors(t *testing.T) {
	dup := ComponentSpec[string]{Cells: []NodeSpec[string]{
		{State: "q", Pos: grid.Pos{}},
		{State: "q", Pos: grid.Pos{}},
	}}
	if _, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{dup}}, inertProtocol{}, Options{}); err == nil {
		t.Error("duplicate cells accepted")
	}
	disconnected := ComponentSpec[string]{Cells: []NodeSpec[string]{
		{State: "q", Pos: grid.Pos{}},
		{State: "q", Pos: grid.Pos{X: 2}},
	}}
	if _, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{disconnected}}, inertProtocol{}, Options{}); err == nil {
		t.Error("disconnected component accepted")
	}
	badBond := ComponentSpec[string]{
		Cells: []NodeSpec[string]{{State: "q", Pos: grid.Pos{}}, {State: "q", Pos: grid.Pos{X: 1}}},
		Bonds: [][2]int{{0, 5}},
	}
	if _, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{badBond}}, inertProtocol{}, Options{}); err == nil {
		t.Error("out-of-range bond accepted")
	}
}

func TestLatentPairsFromConfig(t *testing.T) {
	// Two adjacent cells bonded explicitly to only one neighbor leave the
	// other adjacency latent: an L of 3 cells with one missing bond.
	l := ComponentSpec[string]{
		Cells: []NodeSpec[string]{
			{State: "q", Pos: grid.Pos{X: 0, Y: 0}},
			{State: "q", Pos: grid.Pos{X: 1, Y: 0}},
			{State: "q", Pos: grid.Pos{X: 1, Y: 1}},
			{State: "q", Pos: grid.Pos{X: 0, Y: 1}},
		},
		Bonds: [][2]int{{0, 1}, {1, 2}, {2, 3}}, // bond 3-0 left latent
	}
	w, err := NewFromConfig(Config[string]{Components: []ComponentSpec[string]{l}}, inertProtocol{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.latent.Len() != 1 {
		t.Fatalf("latent = %d, want 1", w.latent.Len())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStepAllocationFree is the sim-engine counterpart of the pop alloc
// guard: on a frozen all-free population the steady-state Step (inter-pair
// sampling, placement enumeration, ineffective interaction) must not touch
// the heap. The rule-table world demotes its leader so no rule ever
// applies, and every step goes through the interned table lookup.
func TestStepAllocationFree(t *testing.T) {
	table := New(64, NewTableProtocol(lineTable(t)), Options{Seed: 3})
	table.SetNodeState(0, "q0")
	for name, w := range map[string]interface{ Step() (StepInfo, error) }{
		"inert":      New(64, inertProtocol{}, Options{Seed: 3}),
		"rule-table": table,
	} {
		for i := 0; i < 1_000; i++ {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(1_000, func() { w.Step() }); allocs != 0 {
			t.Fatalf("%s: Step allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
