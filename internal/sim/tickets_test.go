package sim

import (
	"math/rand"
	"testing"

	"shapesol/internal/sched"
	"shapesol/internal/wrand"
)

// prefixOwner is the reference slot of a ticket: the first slot whose
// prefix sum of weights exceeds it, found by a plain linear search.
func prefixOwner(weights []int32, ticket int64) int {
	var sum int64
	for slot, n := range weights {
		sum += int64(n)
		if ticket < sum {
			return slot
		}
	}
	return -1
}

// checkTickets asserts that tt holds weights, that one pick makes exactly
// the one Int63n(total) draw and lands on the prefix-search slot of that
// draw, and that every ticket of the (then built) table maps to its
// prefix-search slot.
func checkTickets(t *testing.T, tt *tickets, weights []int32, seed int64) {
	t.Helper()
	var total int64
	for _, n := range weights {
		total += int64(n)
	}
	if tt.total != total {
		t.Fatalf("total %d, want %d", tt.total, total)
	}
	r, ref := wrand.NewRNG(seed), wrand.NewRNG(seed)
	slot, ok := tt.sample(r)
	if total == 0 {
		if ok || r.State() != ref.State() {
			t.Fatal("a pick with zero total weight succeeded or drew")
		}
		return
	}
	if want := prefixOwner(weights, ref.Int63n(total)); !ok || slot != want {
		t.Fatalf("pick = %d, %v; the same draw's prefix slot is %d", slot, ok, want)
	}
	if r.State() != ref.State() {
		t.Fatal("a pick consumed other than one Int63n draw")
	}
	for ticket := int64(0); ticket < total; ticket++ {
		if got, want := int(tt.owner[ticket]), prefixOwner(weights, ticket); got != want {
			t.Fatalf("ticket %d owned by slot %d, prefix search says %d", ticket, got, want)
		}
	}
	if err := tt.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTicketsMatchPrefixSearch drives the ticket table through random
// weight vectors — zero-weight slots, slots set past the current range,
// drops to zero and restores through reset — and checks every ticket
// against a plain prefix search after each change. The table is rebuilt
// only on the first pick after a change, and outgrows its first capacity.
func TestTicketsMatchPrefixSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tt tickets
	tt.reset(4)
	weights := make([]int32, 4)
	checkTickets(t, &tt, weights, 0)
	firstCap, grew := -1, false
	for round := 0; round < 400; round++ {
		switch op := rng.Intn(10); {
		case op < 6: // set a slot, a fifth of the time to zero, sometimes past the range
			slot := rng.Intn(len(weights) + 3)
			n := int64(1 + rng.Intn(6))
			if rng.Intn(5) == 0 {
				n = 0
			}
			tt.set(slot, n)
			for slot >= len(weights) {
				weights = append(weights, 0)
			}
			weights[slot] = int32(n)
		case op < 8: // drop a slot
			slot := rng.Intn(len(weights))
			tt.set(slot, 0)
			weights[slot] = 0
		case op < 9: // restore: reinstall the weights into a reset table
			tt.reset(len(weights))
			for slot, n := range weights {
				tt.set(slot, int64(n))
			}
		default: // no change: a pick must not rebuild
			if !tt.stale {
				checkTickets(t, &tt, weights, int64(round))
				if tt.stale {
					t.Fatal("a pick marked the table stale")
				}
			}
		}
		checkTickets(t, &tt, weights, int64(round))
		if firstCap < 0 && tt.total > 0 {
			firstCap = cap(tt.owner)
		}
		grew = grew || cap(tt.owner) > firstCap
	}
	if !grew {
		t.Fatal("the ticket table never outgrew its first capacity")
	}
}

// TestTicketsTrackChurnAndRestore checks the world's ticket table against
// its open-port sets (Validate) while arrivals grow it past its first
// capacity, departures drop slots and merges and splits move weight
// between them; and that a world restored from a mid-run memento builds
// the table the captured world had.
func TestTicketsTrackChurnAndRestore(t *testing.T) {
	profile := sched.Profile{ArriveEvery: 100, DepartEvery: 300, MaxChurn: 60}
	build := func() *World[int] {
		w := New(10, churnProtocol{}, Options{Seed: 8, MaxSteps: 30_000, CheckEvery: 64})
		if err := w.ApplyProfile(profile); err != nil {
			t.Fatal(err)
		}
		return w
	}
	probe := wrand.NewRNG(1)
	var m *Memento[int]
	var want []int32
	w := build()
	ticks, firstCap := 0, 0
	w.opts.Progress = func(int64) {
		ticks++
		w.tickets.sample(probe) // build the table if a change left it stale
		if err := w.Validate(); err != nil {
			t.Fatalf("tick %d: %v", ticks, err)
		}
		if ticks == 1 {
			firstCap = cap(w.tickets.owner)
		}
		if ticks == 200 {
			m, want = w.Memento(), append([]int32(nil), w.tickets.owner...)
		}
	}
	w.Run()
	if cap(w.tickets.owner) <= firstCap || len(w.nodes) <= 10 {
		t.Fatalf("arrivals grew the population to %d and the table from %d to %d tickets",
			len(w.nodes), firstCap, cap(w.tickets.owner))
	}
	if m == nil {
		t.Fatal("run too short to capture a memento")
	}

	restored := build()
	if err := restored.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	restored.tickets.sample(probe)
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(restored.tickets.owner) != len(want) {
		t.Fatalf("restored table holds %d tickets, want %d", len(restored.tickets.owner), len(want))
	}
	for i := range want {
		if restored.tickets.owner[i] != want[i] {
			t.Fatalf("restored ticket %d owned by %d, want %d", i, restored.tickets.owner[i], want[i])
		}
	}
}
