package sim

import (
	"fmt"
	"slices"

	"shapesol/internal/wrand"
)

// tickets is the component sampler of the inter-component pick. Slot s
// holds weight[s] open ports and owns that many consecutive tickets, the
// slots laid out in index order, so owner[t] is the first slot whose
// prefix sum of weights exceeds t. A pick is then one Int63n(total) draw
// and one load, and lands on exactly the slot a prefix-sum (Fenwick)
// descent would return for the same draw.
//
// Weights change only when components change — a merge or split (both
// effective interactions), a drop, an arrival or a restore — while almost
// every step picks. So owner is rebuilt lazily, on the first pick after a
// change, in O(total) time over its own backing array: total is at most
// six open ports per node.
type tickets struct {
	weight []int32 // open-port count per component slot; 0 for a free slot
	total  int64   // sum of weight
	sumSq  int64   // sum of squared weights
	owner  []int32 // ticket -> slot; valid only when !stale
	stale  bool
}

// reset sizes the table to slots zero-weight slots, keeping capacity.
func (t *tickets) reset(slots int) {
	t.weight = append(t.weight[:0], make([]int32, slots)...)
	t.total, t.sumSq = 0, 0
	t.stale = true
}

// set gives slot the weight count, growing the slot range as needed.
func (t *tickets) set(slot int, count int64) {
	for slot >= len(t.weight) {
		t.weight = append(t.weight, 0)
	}
	old := int64(t.weight[slot])
	if old == count {
		return
	}
	t.total += count - old
	t.sumSq += count*count - old*old
	t.weight[slot] = int32(count)
	t.stale = true
}

// sample draws a slot with probability proportional to its weight. It
// reports false, without drawing, when every weight is zero.
func (t *tickets) sample(r *wrand.RNG) (int, bool) {
	if t.total <= 0 {
		return 0, false
	}
	if t.stale {
		t.rebuild()
	}
	return int(t.owner[r.Int63n(t.total)]), true
}

// rebuild lays the slots' ticket runs out in index order.
func (t *tickets) rebuild() {
	owner := slices.Grow(t.owner[:0], int(t.total))
	for slot, n := range t.weight {
		for ; n > 0; n-- {
			owner = append(owner, int32(slot))
		}
	}
	t.owner, t.stale = owner, false
}

// validate checks the aggregates against the weights and, when the table
// is built, every ticket's owner against the prefix sums.
func (t *tickets) validate() error {
	var total, sumSq int64
	for slot, n := range t.weight {
		if n < 0 {
			return fmt.Errorf("slot %d has negative weight %d", slot, n)
		}
		total += int64(n)
		sumSq += int64(n) * int64(n)
	}
	if t.total != total || t.sumSq != sumSq {
		return fmt.Errorf("aggregates T=%d S2=%d, want %d, %d", t.total, t.sumSq, total, sumSq)
	}
	if t.stale {
		return nil
	}
	if int64(len(t.owner)) != total {
		return fmt.Errorf("ticket table holds %d tickets, want %d", len(t.owner), total)
	}
	ticket := 0
	for slot, n := range t.weight {
		for ; n > 0; n-- {
			if int(t.owner[ticket]) != slot {
				return fmt.Errorf("ticket %d owned by slot %d, want %d", ticket, t.owner[ticket], slot)
			}
			ticket++
		}
	}
	return nil
}
