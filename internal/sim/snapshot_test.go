package sim

import (
	"math"
	"testing"

	"shapesol/internal/grid"
	"shapesol/internal/rules"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// stepN advances w by n scheduler steps, tolerating ErrNoInteraction.
func stepN[S comparable](t *testing.T, w *World[S], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestSnapshotResumeIdentical: churnProtocol exercises merges, splits and
// latent-bond churn, so the memento round-trips a nontrivial component
// landscape. After restore, both worlds must walk the identical
// trajectory to the end of the budget.
func TestSnapshotResumeIdentical(t *testing.T) {
	opts := Options{Seed: 13, MaxSteps: 60_000}
	base := New(30, churnProtocol{}, opts)
	stepN(t, base, 20_000)
	m := base.Memento()
	baseRes := base.Run()

	resumed := New(30, churnProtocol{}, opts)
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if resumed.Steps() != 20_000 {
		t.Fatalf("restored clock %d, want 20000", resumed.Steps())
	}
	resumedRes := resumed.Run()
	if baseRes != resumedRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, resumedRes)
	}
	for id := 0; id < base.N(); id++ {
		if base.State(id) != resumed.State(id) {
			t.Fatalf("node %d state diverged", id)
		}
		if base.Pos(id) != resumed.Pos(id) || base.Rot(id) != resumed.Rot(id) {
			t.Fatalf("node %d placement diverged", id)
		}
		if base.ComponentOf(id) != resumed.ComponentOf(id) {
			t.Fatalf("node %d component diverged", id)
		}
	}
	bs, rs := base.ComponentSlots(), resumed.ComponentSlots()
	if len(bs) != len(rs) {
		t.Fatalf("component count diverged: %d vs %d", len(bs), len(rs))
	}
	for i := range bs {
		if !base.ComponentShape(bs[i]).Equal(resumed.ComponentShape(rs[i])) {
			t.Fatalf("component %d shape diverged", bs[i])
		}
	}
}

// TestSnapshotResumeFromConfig checks the round trip on a world built
// from an explicit configuration (pre-assembled component plus free
// nodes), the shape the replication and TM constructors start from.
func TestSnapshotResumeFromConfig(t *testing.T) {
	cfg := Config[int]{
		Components: []ComponentSpec[int]{{Cells: []NodeSpec[int]{
			{State: 0, Pos: grid.Pos{}}, {State: 1, Pos: grid.Pos{X: 1}}, {State: 2, Pos: grid.Pos{X: 1, Y: 1}},
		}}},
		Free: []int{10, 11, 12, 13, 14},
	}
	opts := Options{Seed: 21, MaxSteps: 30_000}
	base, err := NewFromConfig(cfg, churnProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, base, 9_000)
	m := base.Memento()
	baseRes := base.Run()

	resumed, err := NewFromConfig(cfg, churnProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); got != baseRes {
		t.Fatalf("results diverged:\nbase    %+v\nresumed %+v", baseRes, got)
	}
}

// TestSnapshotCaptureIsPassive checks capture does not perturb the
// trajectory.
func TestSnapshotCaptureIsPassive(t *testing.T) {
	opts := Options{Seed: 3, MaxSteps: 10_000}
	plain := New(16, churnProtocol{}, opts)
	observed := New(16, churnProtocol{}, opts)
	for i := 0; i < 6_000; i++ {
		if _, err := plain.Step(); err != nil {
			t.Fatal(err)
		}
		observed.Memento()
		if _, err := observed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if plain.Steps() != observed.Steps() || plain.Effective() != observed.Effective() {
		t.Fatal("clocks diverged under observation")
	}
	for id := 0; id < plain.N(); id++ {
		if plain.State(id) != observed.State(id) {
			t.Fatalf("node %d diverged under observation", id)
		}
	}
}

// TestRestoreMementoRejectsCorrupt covers the validation paths.
// Snapshots cross a trust boundary (the daemon resumes uploaded bytes),
// so every corruption here must come back as an error, never a panic.
func TestRestoreMementoRejectsCorrupt(t *testing.T) {
	m := New(8, churnProtocol{}, Options{Seed: 1}).Memento()
	fresh := func() *World[int] { return New(8, churnProtocol{}, Options{Seed: 1}) }
	if err := New(9, churnProtocol{}, Options{Seed: 1}).RestoreMemento(m); err == nil {
		t.Fatal("accepted a population-size mismatch")
	}
	if err := New(8, churnProtocol{}, Options{Seed: 1, Dim: 3}).RestoreMemento(m); err == nil {
		t.Fatal("accepted a dimension mismatch")
	}
	bad := *m
	bad.Comps = append([]ComponentMemento(nil), m.Comps...)
	bad.Comps[0].Slot = bad.NumSlots + 5
	if err := fresh().RestoreMemento(&bad); err == nil {
		t.Fatal("accepted an out-of-range component slot")
	}
	bad = *m
	run20k := New(30, churnProtocol{}, Options{Seed: 13, MaxSteps: 60_000})
	stepN(t, run20k, 5_000) // a memento with bonded pairs to duplicate
	bm := run20k.Memento()
	if len(bm.Bonded) == 0 {
		t.Fatal("churn memento has no bonded pairs to corrupt")
	}
	bm.Bonded = append(bm.Bonded, bm.Bonded[0])
	if err := New(30, churnProtocol{}, Options{Seed: 13, MaxSteps: 60_000}).RestoreMemento(bm); err == nil {
		t.Fatal("accepted a duplicate bonded pair (would panic the sampling set)")
	}
	bad = *m
	bad.Nodes = append([]NodeMemento[int](nil), m.Nodes...)
	bad.Nodes[0].BondedTo[0] = 99
	if err := fresh().RestoreMemento(&bad); err == nil {
		t.Fatal("accepted an out-of-range bond target")
	}
	bad = *m
	bad.Comps = append([]ComponentMemento(nil), m.Comps...)
	bad.Comps[0] = ComponentMemento{Slot: m.Comps[0].Slot, Nodes: m.Comps[0].Nodes,
		Open: append(append([]PortRef(nil), m.Comps[0].Open...), m.Comps[0].Open[0])}
	if err := fresh().RestoreMemento(&bad); err == nil {
		t.Fatal("accepted a duplicate open port (would panic the sampling set)")
	}
}

// TestRestoreMementoBoundsSlots is the regression test for a crafted
// snapshot of a stabilizing line run that claimed 1<<40 component slots:
// restore allocated by NumSlots before checking anything and died with a
// fatal out-of-memory error, which no recover can catch. In every saved
// world the components' slots and the free-slot stack partition
// [0, NumSlots), so a memento breaking that is rejected before anything
// is sized by NumSlots; FreeSlots entries out of range or live (a panic
// or a corrupt world at the next split) are rejected with it.
func TestRestoreMementoBoundsSlots(t *testing.T) {
	build := func() *World[rules.State] {
		return New(16, NewTableProtocol(lineTable(t)), Options{Seed: 1})
	}
	base := build()
	stepN(t, base, 20_000)
	m := base.Memento()
	if len(m.FreeSlots) == 0 {
		t.Fatal("no merge freed a slot; run longer")
	}
	for name, corrupt := range map[string]func(m *Memento[rules.State]){
		"huge NumSlots":       func(m *Memento[rules.State]) { m.NumSlots = 1 << 40 },
		"unclaimed slot":      func(m *Memento[rules.State]) { m.NumSlots++ },
		"free slot too large": func(m *Memento[rules.State]) { m.FreeSlots[0] = m.NumSlots },
		"negative free slot":  func(m *Memento[rules.State]) { m.FreeSlots[0] = -1 },
		"free slot is live":   func(m *Memento[rules.State]) { m.FreeSlots[0] = m.Comps[0].Slot },
	} {
		bad := *m
		bad.FreeSlots = append([]int(nil), m.FreeSlots...)
		corrupt(&bad)
		if err := build().RestoreMemento(&bad); err == nil {
			t.Errorf("%s: restore accepted the memento", name)
		}
	}
	if err := build().RestoreMemento(m); err != nil {
		t.Fatalf("intact memento rejected: %v", err)
	}
}

// fuzzProfile is the crash-and-churn profile of FuzzSimRestore's faulted
// seed; a memento carrying scheduler state restores into a world built
// with it.
var fuzzProfile = sched.Profile{
	CrashEvery: 400, RecoverEvery: 300, ArriveEvery: 500, DepartEvery: 700, MaxChurn: 12,
}

// fuzzWorld builds FuzzSimRestore's world: 12 churning nodes, with the
// fuzz profile when faulted.
func fuzzWorld(t testing.TB, faulted bool) *World[int] {
	w := New(12, churnProtocol{}, Options{Seed: 5, CheckEvery: 64})
	if faulted {
		if err := w.ApplyProfile(fuzzProfile); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// FuzzSimRestore feeds hostile engine state to RestoreMemento, as the
// daemon does when it resumes an uploaded snapshot: the gob payload of a
// captured memento (one bare, one taken mid-run under crash and churn),
// mutated. RestoreMemento must either return an error or leave a world
// that passes Validate and takes 1000 steps without panicking.
func FuzzSimRestore(f *testing.F) {
	for _, faulted := range []bool{false, true} {
		w := fuzzWorld(f, faulted)
		w.opts.MaxSteps = 3_000
		w.Run()
		data, err := snap.EncodeState(w.Memento())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Memento[int]
		if snap.DecodeState(data, &m) != nil {
			return
		}
		w := fuzzWorld(t, m.Sched != nil)
		if w.RestoreMemento(&m) != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("restored world fails Validate: %v", err)
		}
		if w.steps > math.MaxInt64-1000 { // no budget above the clock: step by hand
			for i := 0; i < 1000; i++ {
				if _, err := w.Step(); err != nil {
					return
				}
			}
			return
		}
		w.opts.MaxSteps = w.steps + 1000
		w.Run()
	})
}

// TestRestoreMementoValidatesWorld covers the range checks and the final
// Validate of RestoreMemento: each memento below is well-typed but no
// saved world looks like it, and most would panic or corrupt the world
// on a later step.
func TestRestoreMementoValidatesWorld(t *testing.T) {
	base := New(12, churnProtocol{}, Options{Seed: 3})
	stepN(t, base, 4_000)
	m := base.Memento()
	multi := -1 // a component with at least two nodes
	for i, cm := range m.Comps {
		if len(cm.Nodes) > 1 {
			multi = i
			break
		}
	}
	if multi < 0 {
		t.Fatal("no multi-node component to corrupt")
	}
	clone := func() *Memento[int] {
		c := *m
		c.Nodes = append([]NodeMemento[int](nil), m.Nodes...)
		c.Comps = append([]ComponentMemento(nil), m.Comps...)
		return &c
	}
	for name, corrupt := range map[string]func(c *Memento[int]){
		"rotation out of range": func(c *Memento[int]) { c.Nodes[0].Rot = grid.NumRots },
		"3D rotation in 2D": func(c *Memento[int]) {
			for _, r := range grid.AllRots() {
				if !r.Planar() {
					c.Nodes[0].Rot = r
					return
				}
			}
		},
		"negative step count":   func(c *Memento[int]) { c.Steps = -1 },
		"effective above steps": func(c *Memento[int]) { c.Effective = c.Steps + 1 },
		"empty component":       func(c *Memento[int]) { c.Comps[multi].Nodes = nil },
		"node off its cell": func(c *Memento[int]) {
			id := c.Comps[multi].Nodes[0]
			c.Nodes[id].Pos = grid.Pos{X: 1000}
		},
		"bond through 3D port": func(c *Memento[int]) {
			a, b := c.Comps[multi].Nodes[0], c.Comps[multi].Nodes[1]
			c.Nodes[a].BondedTo[grid.PZ] = int32(b)
		},
	} {
		c := clone()
		corrupt(c)
		if err := New(12, churnProtocol{}, Options{Seed: 3}).RestoreMemento(c); err == nil {
			t.Errorf("%s: restore accepted the memento", name)
		}
	}

	// A faulted memento whose step count runs far ahead of its fault
	// clock would have the first cadence deliver a burst of events.
	faulted := fuzzWorld(t, true)
	faulted.opts.MaxSteps = 2_000
	faulted.Run()
	fm := faulted.Memento()
	fm.Steps += 1 << 40
	if err := fuzzWorld(t, true).RestoreMemento(fm); err == nil {
		t.Error("restore accepted a fault clock lagging 2^40 steps")
	}
}
