// Package wrand provides the sampling data structures used by the
// uniform-random scheduler: two weighted samplers over integer slots —
// the O(log n) Fenwick tree behind the scheduler policies of
// internal/sched, and the O(1) Alias sampler with amortized incremental
// updates behind the urn engine's pair draws (its tests use Fenwick as
// the oracle) — and an indexable set with O(1) insert/remove/uniform-
// sample, which scans instead of indexing while it is small. The sim
// engine draws its components from a ticket table of its own
// (internal/sim): its weights change only when components do, so an O(1)
// pick beats the descent.
//
// All randomness flows through a caller-supplied source (any Rand — the
// engines use the serializable *RNG) so that entire simulations are
// reproducible from a single seed and can be snapshotted mid-run (the
// alias sampler exports its drift state as AliasState for exactly this).
package wrand

import (
	"fmt"
	"math/bits"
)

// Fenwick is a binary indexed tree over int64 weights supporting point
// updates, prefix sums, and weighted sampling in O(log n), with the total
// weight kept alongside so Total is O(1). Slots are indexed from 0. The
// tree spans a capacity of at least n slots, the ones past n at weight
// zero, so Grow is amortized O(log n) per slot. The zero value is
// unusable; call NewFenwick.
type Fenwick struct {
	tree  []int64 // 1-based internal representation over the capacity
	n     int
	total int64 // sum of all weights
	top   int   // highest power of two <= capacity (0 when empty): Sample's first step
}

// NewFenwick returns a Fenwick tree with n zero-weight slots.
func NewFenwick(n int) *Fenwick {
	return &Fenwick{tree: make([]int64, n+1), n: n, top: highBit(n)}
}

// highBit returns the highest power of two <= n, or 0 when n <= 0.
func highBit(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// Grow extends the tree to at least n slots, preserving weights. Within
// the capacity it only moves the slot bound; past it, the capacity at
// least doubles and the tree is rebuilt in O(capacity). Sample returns the
// first slot whose prefix sum exceeds its target, which a zero-weight
// tail cannot change, so a grown tree draws exactly what a tree built at
// its size with the same weights draws.
func (f *Fenwick) Grow(n int) {
	if n <= f.n {
		return
	}
	if n < len(f.tree) {
		f.n = n
		return
	}
	capacity := max(n, 2*(len(f.tree)-1))
	tree := make([]int64, capacity+1)
	for i := 0; i < f.n; i++ {
		tree[i+1] = f.Weight(i)
	}
	for j := 1; j <= capacity; j++ {
		if parent := j + j&-j; parent <= capacity {
			tree[parent] += tree[j]
		}
	}
	f.tree, f.n, f.top = tree, n, highBit(capacity)
}

// Add adds delta to the weight of slot i. The resulting weight must remain
// non-negative; Add panics otherwise since a negative weight would silently
// corrupt sampling.
func (f *Fenwick) Add(i int, delta int64) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("wrand: slot %d out of range [0,%d)", i, f.n))
	}
	if delta < 0 && f.Weight(i)+delta < 0 {
		panic(fmt.Sprintf("wrand: slot %d weight would become negative", i))
	}
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
	f.total += delta
}

// Set sets the weight of slot i.
func (f *Fenwick) Set(i int, w int64) {
	if w < 0 {
		panic("wrand: negative weight")
	}
	f.Add(i, w-f.Weight(i))
}

// Weight returns the weight of slot i.
func (f *Fenwick) Weight(i int) int64 {
	return f.prefix(i+1) - f.prefix(i)
}

// Total returns the sum of all weights.
func (f *Fenwick) Total() int64 { return f.total }

// prefix returns the sum of slots [0, i).
func (f *Fenwick) prefix(i int) int64 {
	var s int64
	for j := i; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// Sample draws a slot with probability proportional to its weight. It
// reports false when the total weight is zero.
func (f *Fenwick) Sample(r Rand) (int, bool) {
	if f.total <= 0 {
		return 0, false
	}
	target := r.Int63n(f.total) // uniform in [0, total)
	// Descend the implicit tree: find the first slot whose prefix sum
	// exceeds target.
	tree := f.tree // len(tree) == capacity+1
	idx := 0
	for half := f.top; half > 0; half >>= 1 {
		next := idx + half
		if next >= len(tree) {
			continue
		}
		// take is all ones when tree[next] <= target: branch-free, since
		// the comparison is a coin flip the predictor cannot learn.
		v := tree[next]
		take := (v - target - 1) >> 63
		target -= v & take
		idx += half & int(take)
	}
	return idx, true // idx is 0-based because we counted full subtrees
}

// Set is an indexable set of comparable elements supporting Add, Remove,
// membership and uniform sampling. While it holds at most smallSet
// elements it keeps no index and scans its items, so a small set (a lone
// node's open ports) allocates no map; the first time it grows past that
// it indexes its items in a map, O(1) per operation from then on. Either
// way the item order, which Sample draws by, is the same function of the
// operation history. The zero value is an empty set ready to use.
type Set[T comparable] struct {
	items []T
	index map[T]int // nil until the set first holds more than smallSet items
}

// smallSet is the size up to which a Set scans instead of indexing.
const smallSet = 8

// NewSet returns an empty set.
func NewSet[T comparable]() *Set[T] {
	return &Set[T]{}
}

// Len returns the number of elements.
func (s *Set[T]) Len() int { return len(s.items) }

// find returns v's position in items, or -1.
func (s *Set[T]) find(v T) int {
	if s.index != nil {
		if i, ok := s.index[v]; ok {
			return i
		}
		return -1
	}
	for i, x := range s.items {
		if x == v {
			return i
		}
	}
	return -1
}

// Has reports membership.
func (s *Set[T]) Has(v T) bool { return s.find(v) >= 0 }

// Add inserts v; it is a no-op if v is already present.
func (s *Set[T]) Add(v T) {
	if s.find(v) >= 0 {
		return
	}
	s.items = append(s.items, v)
	switch {
	case s.index != nil:
		s.index[v] = len(s.items) - 1
	case len(s.items) > smallSet:
		s.reindex()
	}
}

// reindex builds the index over items, panicking on a duplicate.
func (s *Set[T]) reindex() {
	if s.index == nil {
		s.index = make(map[T]int, len(s.items))
	} else {
		clear(s.index)
	}
	for i, v := range s.items {
		if _, dup := s.index[v]; dup {
			panic(fmt.Sprintf("wrand: Replace with duplicate element %v", v))
		}
		s.index[v] = i
	}
}

// Remove deletes v using swap-with-last; it is a no-op if absent.
func (s *Set[T]) Remove(v T) {
	i := s.find(v)
	if i < 0 {
		return
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[i] = moved
	s.items = s.items[:last]
	if s.index != nil {
		s.index[moved] = i
		delete(s.index, v)
	}
}

// Sample returns a uniformly random element; it reports false when empty.
func (s *Set[T]) Sample(r Rand) (T, bool) {
	var zero T
	if len(s.items) == 0 {
		return zero, false
	}
	return s.items[r.Intn(len(s.items))], true
}

// Items returns the elements in internal (arbitrary but deterministic given
// the operation history) order. The caller must not mutate the result.
func (s *Set[T]) Items() []T { return s.items }

// Clear removes every element.
func (s *Set[T]) Clear() {
	s.items = s.items[:0]
	clear(s.index)
}

// Replace resets the set to exactly items, in that order. Because Sample
// draws by index, the element order is part of the set's sampling state;
// Replace exists so an engine snapshot can restore it verbatim. It panics
// on a duplicate element (a snapshot carrying one is corrupt).
func (s *Set[T]) Replace(items []T) {
	s.items = append(s.items[:0], items...)
	if s.index != nil || len(s.items) > smallSet {
		s.reindex()
		return
	}
	for i, v := range s.items {
		for _, u := range s.items[:i] {
			if u == v {
				panic(fmt.Sprintf("wrand: Replace with duplicate element %v", v))
			}
		}
	}
}
