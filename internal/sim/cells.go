package sim

import "shapesol/internal/grid"

// cellBits is the width of one axis of a packed cell key.
const cellBits = 21

// maxNodes bounds the node ids of a world (founders plus arrivals): the
// packed cell keys below are exact only for bodies of fewer cells.
const maxNodes = 1 << cellBits

// occupied marks a packed key, so that an empty table slot (key 0) never
// matches one.
const occupied = 1 << 63

// cellKey packs cell p into one word, each axis taken mod 2^21, with the
// occupied bit set. The packing is a ring homomorphism, so it agrees with
// the engine's wrapping int arithmetic, and two cells share a key only
// when they differ by a nonzero multiple of 2^21 on some axis. That never
// happens where a table is asked: a table holds one bond-connected body,
// whose cells lie within its node count of each other on every axis, and
// every probe is a cell facing one of its nodes or a cell of another body
// placed against it, so probe and cells lie within the two bodies' node
// count, below maxNodes. So a lookup answers exactly what a map keyed by
// grid.Pos would, without a branch on the hot path.
func cellKey(p grid.Pos) uint64 {
	const m = 1<<cellBits - 1
	return uint64(p.X)&m | (uint64(p.Y)&m)<<cellBits | (uint64(p.Z)&m)<<(2*cellBits) | occupied
}

// cellTable is one body's cell index, occupied cell -> node id: a flat
// open-addressed table keyed by cellKey, probed linearly from a
// multiplicative hash, at most half full, with backward-shift deletion so
// that no tombstone lengthens a probe. Nothing ranges over its storage
// order: walks go over node slices.
type cellTable struct {
	slots []cellSlot // power-of-two length, or nil while empty
	n     int        // occupied cells
	shift uint8      // 64 - log2(len(slots))
}

// cellSlot is one table entry; key 0 marks an empty slot.
type cellSlot struct {
	key uint64
	id  int
}

// home returns the first slot probed for key k.
func (t *cellTable) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the node at cell p.
func (t *cellTable) get(p grid.Pos) (int, bool) {
	if t.slots == nil {
		return 0, false
	}
	k, mask := cellKey(p), len(t.slots)-1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.key {
		case k:
			return s.id, true
		case 0:
			return 0, false
		}
	}
}

// has reports whether cell p is occupied.
func (t *cellTable) has(p grid.Pos) bool {
	_, ok := t.get(p)
	return ok
}

// add places node id at cell p, unless p is taken: then it reports the
// node holding it and changes nothing.
func (t *cellTable) add(p grid.Pos, id int) (prev int, taken bool) {
	t.reserve(t.n + 1)
	k, mask := cellKey(p), len(t.slots)-1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; s.key {
		case k:
			return s.id, true
		case 0:
			*s = cellSlot{key: k, id: id}
			t.n++
			return 0, false
		}
	}
}

// remove frees cell p; it is a no-op when p is not occupied. Each entry
// after the freed slot in its probe run moves back into the hole when the
// hole lies between the entry's home and its slot, so every remaining
// entry stays reachable from its home without tombstones.
func (t *cellTable) remove(p grid.Pos) {
	if t.slots == nil {
		return
	}
	k, mask := cellKey(p), len(t.slots)-1
	i := t.home(k)
	for t.slots[i].key != k {
		if t.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j].key); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = cellSlot{}
	t.n--
}

// reserve grows the table so that it holds n cells at most half full.
func (t *cellTable) reserve(n int) {
	if 2*n <= len(t.slots) {
		return
	}
	size, shift := 2, uint8(63)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	old := t.slots
	t.slots, t.shift = make([]cellSlot, size), shift
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
