package wrand

import (
	"fmt"
	"math"
)

// excessCap bounds the side list of slots whose weight grew past their
// stale table entry; exceeding it triggers a table rebuild, which keeps
// every Sample scan O(excessCap) = O(1).
const excessCap = 64

// Alias is a weighted sampler with O(1) draws and cheap incremental
// updates. It keeps a Walker/Vose alias table built from a snapshot of the
// weight vector; point updates adjust the live weights without touching
// the table, and Sample corrects for the drift exactly:
//
//   - a slot's live weight below its table entry is handled by rejection
//     (accept with live/table probability),
//   - the part of a slot's weight above its table entry lives in a small
//     "excess" side list sampled by linear scan.
//
// Rebuilds are amortized on an update budget: the table is rebuilt (O(n))
// when the rejection acceptance rate would drop below 1/2, when the
// excess list outgrows its cap, or when the excess mass reaches half the
// total — so steady-state churn costs O(1) amortized per update and
// Sample stays O(1) expected. All arithmetic is integer-exact: the table
// is built on weights scaled by n (capacity total per bucket), so the
// sampling law is exactly proportional to the live weights, never a
// float approximation.
//
// Unlike Fenwick, the draw sequence depends on internal table state (the
// rejection loop consumes a state-dependent number of Rand draws), so the
// table snapshot and excess-list order are part of the sampling state;
// State/SetState capture and restore them verbatim for deterministic
// engine snapshots. The zero value is unusable; call NewAlias.
type Alias struct {
	weights []int64
	total   int64

	tableW     []int64 // weight snapshot at the last rebuild
	tableTotal int64
	thresh     []int64 // bucket threshold in [0, tableTotal]
	alias      []int32
	covered    int64 // sum over slots of min(weights, tableW)

	excess    []int32 // slots with weights > tableW, scan order
	excessPos []int32 // slot -> index in excess, -1 when absent

	scaled       []int64 // rebuild scratch
	small, large []int32

	// rebuilds counts table rebuilds for observability. It is NOT part
	// of State/SetState: the rebuild *policy* (stale) is a pure function
	// of the sampling state, so a restored run rebuilds at the same
	// points without this counter, and including it would change the
	// snapshot wire format.
	rebuilds int64
}

// NewAlias returns an alias sampler with n zero-weight slots.
func NewAlias(n int) *Alias {
	a := &Alias{}
	a.resize(n)
	a.rebuild()
	return a
}

// resize (re)allocates every per-slot table for n slots.
func (a *Alias) resize(n int) {
	a.weights = make([]int64, n)
	a.tableW = make([]int64, n)
	a.thresh = make([]int64, n)
	a.alias = make([]int32, n)
	a.excess = a.excess[:0]
	a.excessPos = make([]int32, n)
	for i := range a.excessPos {
		a.excessPos[i] = -1
	}
	a.scaled = make([]int64, n)
	a.small = make([]int32, 0, n)
	a.large = make([]int32, 0, n)
}

// Len returns the number of slots.
func (a *Alias) Len() int { return len(a.weights) }

// Rebuilds returns the number of table rebuilds since construction.
// Observability only — not part of the snapshot state.
func (a *Alias) Rebuilds() int64 { return a.rebuilds }

// Grow extends the sampler to at least n slots, preserving weights.
func (a *Alias) Grow(n int) {
	if n <= len(a.weights) {
		return
	}
	old := a.weights
	a.resize(n)
	copy(a.weights, old)
	a.rebuild()
}

// Weight returns the weight of slot i.
func (a *Alias) Weight(i int) int64 { return a.weights[i] }

// Total returns the sum of all weights.
func (a *Alias) Total() int64 { return a.total }

// Set sets the weight of slot i, maintaining the drift bookkeeping and
// rebuilding the table when the amortization budget is exhausted.
func (a *Alias) Set(i int, w int64) {
	if w < 0 {
		panic("wrand: negative weight")
	}
	if i < 0 || i >= len(a.weights) {
		panic(fmt.Sprintf("wrand: slot %d out of range [0,%d)", i, len(a.weights)))
	}
	old := a.weights[i]
	if old == w {
		return
	}
	tw := a.tableW[i]
	a.weights[i] = w
	a.total += w - old
	a.covered += min64(w, tw) - min64(old, tw)
	wasEx, isEx := old > tw, w > tw
	if isEx && !wasEx {
		a.excessPos[i] = int32(len(a.excess))
		a.excess = append(a.excess, int32(i))
	} else if !isEx && wasEx {
		pos := a.excessPos[i]
		last := int32(len(a.excess) - 1)
		moved := a.excess[last]
		a.excess[pos] = moved
		a.excessPos[moved] = pos
		a.excess = a.excess[:last]
		a.excessPos[i] = -1
	}
	if a.stale() {
		a.rebuild()
	}
}

// stale reports whether the drift bookkeeping demands a rebuild. It is a
// pure function of the sampler state (no operation counters), so a
// restored snapshot rebuilds at exactly the same points as the live run.
func (a *Alias) stale() bool {
	if len(a.excess) > excessCap {
		return true
	}
	if excessMass := a.total - a.covered; excessMass > 0 && 2*excessMass >= a.total {
		return true
	}
	return 2*a.covered < a.tableTotal
}

// rebuild reconstructs the alias table from the live weights. The
// construction is deterministic (stable stack order), so two samplers
// with equal live weights build identical tables.
func (a *Alias) rebuild() {
	a.rebuilds++
	n := len(a.weights)
	copy(a.tableW, a.weights)
	a.tableTotal = a.total
	a.covered = a.total
	for _, i := range a.excess {
		a.excessPos[i] = -1
	}
	a.excess = a.excess[:0]
	if n == 0 || a.tableTotal == 0 {
		for i := range a.thresh {
			a.thresh[i] = 0
			a.alias[i] = int32(i)
		}
		return
	}
	if a.tableTotal > math.MaxInt64/int64(n) {
		panic(fmt.Sprintf("wrand: alias total weight %d with %d slots exceeds integer capacity", a.tableTotal, n))
	}
	// Integer Vose: scale each weight by n so the n buckets of capacity
	// tableTotal hold the mass exactly, with no float rounding.
	T := a.tableTotal
	a.small, a.large = a.small[:0], a.large[:0]
	for i, w := range a.tableW {
		a.scaled[i] = w * int64(n)
		if a.scaled[i] < T {
			a.small = append(a.small, int32(i))
		} else {
			a.large = append(a.large, int32(i))
		}
	}
	for len(a.small) > 0 && len(a.large) > 0 {
		l := a.small[len(a.small)-1]
		a.small = a.small[:len(a.small)-1]
		g := a.large[len(a.large)-1]
		a.thresh[l] = a.scaled[l]
		a.alias[l] = g
		a.scaled[g] -= T - a.scaled[l]
		if a.scaled[g] < T {
			a.large = a.large[:len(a.large)-1]
			a.small = append(a.small, g)
		}
	}
	// Leftovers hold exactly T each (integer arithmetic is exact).
	for _, k := range a.small {
		a.thresh[k] = T
		a.alias[k] = k
	}
	for _, k := range a.large {
		a.thresh[k] = T
		a.alias[k] = k
	}
}

// Sample draws a slot with probability exactly proportional to its live
// weight; it reports false when the total weight is zero. One uniform
// draw splits the mass between the excess list (scanned linearly, O(1)
// by the excess cap) and the table part, where the alias draw is
// corrected by rejection against the stale entries (expected O(1)
// iterations by the rebuild policy).
func (a *Alias) Sample(r Rand) (int, bool) {
	if a.total <= 0 {
		return 0, false
	}
	x := r.Int63n(a.total)
	if x >= a.covered {
		t := x - a.covered
		for _, i := range a.excess {
			if e := a.weights[i] - a.tableW[i]; t < e {
				return int(i), true
			} else {
				t -= e
			}
		}
		// Unreachable: total - covered is exactly the excess mass.
		panic("wrand: alias excess mass out of sync")
	}
	n := len(a.thresh)
	for {
		k := r.Intn(n)
		if u := r.Int63n(a.tableTotal); u >= a.thresh[k] {
			k = int(a.alias[k])
		}
		tw := a.tableW[k]
		c := min64(a.weights[k], tw)
		if c == tw || (c > 0 && r.Int63n(tw) < c) {
			return k, true
		}
	}
}

// AliasState is the serializable sampling state of an Alias: the live
// weights, the stale table snapshot, and the excess-list order. The
// alias/threshold arrays are derived (deterministic function of the
// table snapshot) and are rebuilt on restore.
type AliasState struct {
	Weights []int64
	TableW  []int64
	Excess  []int32
}

// State exports a deep copy of the sampling state.
func (a *Alias) State() AliasState {
	return AliasState{
		Weights: append([]int64(nil), a.weights...),
		TableW:  append([]int64(nil), a.tableW...),
		Excess:  append([]int32(nil), a.excess...),
	}
}

// SetState restores a previously exported state: subsequent draws and
// rebuild points continue exactly as they would have on the captured
// sampler. The state is validated structurally (lengths, non-negative
// weights, the excess list holding exactly the slots whose weight
// exceeds their table entry, in any order but without duplicates).
func (a *Alias) SetState(s AliasState) error {
	n := len(s.Weights)
	if len(s.TableW) != n {
		return fmt.Errorf("wrand: alias state with %d weights, %d table entries", n, len(s.TableW))
	}
	var total, tableTotal, covered int64
	excessSlots := 0
	for i := 0; i < n; i++ {
		if s.Weights[i] < 0 || s.TableW[i] < 0 {
			return fmt.Errorf("wrand: alias state carries negative weight at slot %d", i)
		}
		total += s.Weights[i]
		tableTotal += s.TableW[i]
		covered += min64(s.Weights[i], s.TableW[i])
		if s.Weights[i] > s.TableW[i] {
			excessSlots++
		}
	}
	if len(s.Excess) != excessSlots {
		return fmt.Errorf("wrand: alias state lists %d excess slots, weights imply %d", len(s.Excess), excessSlots)
	}
	if n > 0 && tableTotal > math.MaxInt64/int64(n) {
		return fmt.Errorf("wrand: alias state total weight %d exceeds integer capacity", tableTotal)
	}
	a.resize(n)
	copy(a.weights, s.Weights)
	a.total = total
	for pos, i := range s.Excess {
		if i < 0 || int(i) >= n {
			return fmt.Errorf("wrand: alias state excess slot %d out of range", i)
		}
		if s.Weights[i] <= s.TableW[i] {
			return fmt.Errorf("wrand: alias state excess slot %d has no excess weight", i)
		}
		if a.excessPos[i] >= 0 {
			return fmt.Errorf("wrand: alias state lists excess slot %d twice", i)
		}
		a.excessPos[i] = int32(pos)
		a.excess = append(a.excess, i)
	}
	// Install the table snapshot and rebuild the derived alias/threshold
	// arrays from it (not from the live weights — the drift is the point).
	live := a.weights
	a.weights = s.TableW
	a.total = tableTotal
	a.rebuild()
	copy(a.tableW, s.TableW)
	a.weights = live
	a.total = total
	a.tableTotal = tableTotal
	a.covered = covered
	// rebuild cleared the excess bookkeeping; reinstall it.
	a.excess = a.excess[:0]
	for pos, i := range s.Excess {
		a.excessPos[i] = int32(pos)
		a.excess = append(a.excess, i)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
