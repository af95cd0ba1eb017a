package check

import "fmt"

// Memento is the serializable exploration state: the interned state
// table, every discovered node (slots flattened into parallel columns so
// gob stays compact and field-order stable), and the BFS cursor. All
// fields are exported for encoding/gob. Restoring it into a fresh
// explorer built with the same protocol, options and profile resumes the
// exploration deterministically — same discovery order, same interned
// ids, same bytes out.
type Memento[S comparable] struct {
	N        int
	Profiled bool
	Starved  int

	States []S

	// Per-node columns. NodeLen gives node i's slot count; the Slot*
	// columns concatenate all nodes' slots in node order.
	NodeLen   []int32
	SlotState []int32
	SlotClass []uint8
	SlotCount []int32
	Parent    []int32
	ViaA      []int32
	ViaB      []int32
	ViaNA     []int32
	ViaNB     []int32

	Head int32
}

// Memento captures the current exploration state. The explorer remains
// usable; the memento shares nothing with it.
func (e *Explorer[S]) Memento() Memento[S] {
	m := Memento[S]{
		N:        e.n,
		Profiled: e.profiled,
		Starved:  e.starved,
		States:   append([]S(nil), e.states...),
		NodeLen:  make([]int32, len(e.nodes)),
		Parent:   make([]int32, len(e.nodes)),
		ViaA:     make([]int32, len(e.nodes)),
		ViaB:     make([]int32, len(e.nodes)),
		ViaNA:    make([]int32, len(e.nodes)),
		ViaNB:    make([]int32, len(e.nodes)),
		Head:     e.head,
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		m.NodeLen[i] = int32(len(nd.slots))
		m.Parent[i] = nd.parent
		m.ViaA[i], m.ViaB[i], m.ViaNA[i], m.ViaNB[i] = nd.via.a, nd.via.b, nd.via.na, nd.via.nb
		for _, sl := range nd.slots {
			m.SlotState = append(m.SlotState, sl.state)
			m.SlotClass = append(m.SlotClass, sl.class)
			m.SlotCount = append(m.SlotCount, sl.count)
		}
	}
	return m
}

// RestoreMemento replaces the exploration state with m. The explorer must
// have been built for the same population size and — because the veto set
// shapes the graph — carry the same profile state the memento was taken
// under (ApplyProfile before RestoreMemento, mirroring the other
// engines' build-then-restore order).
func (e *Explorer[S]) RestoreMemento(m Memento[S]) error {
	if m.N != e.n {
		return fmt.Errorf("check: memento population %d does not match explorer population %d", m.N, e.n)
	}
	if m.Profiled != e.profiled {
		return fmt.Errorf("check: memento profiled=%v does not match explorer profiled=%v (apply the profile before restoring)", m.Profiled, e.profiled)
	}
	if m.Starved != e.starved {
		return fmt.Errorf("check: memento starved prefix %d does not match explorer starved prefix %d", m.Starved, e.starved)
	}
	// Mementos cross a trust boundary (the daemon resumes uploaded
	// snapshots): every column is checked against the others before
	// anything is sized or indexed by it. The slot total is summed in int,
	// so crafted lengths cannot wrap it into agreement.
	nodes := len(m.NodeLen)
	if nodes == 0 {
		return fmt.Errorf("check: memento has no root configuration")
	}
	if m.Head < 0 || int(m.Head) > nodes {
		return fmt.Errorf("check: memento head %d outside its %d nodes", m.Head, nodes)
	}
	for _, col := range [][]int32{m.Parent, m.ViaA, m.ViaB, m.ViaNA, m.ViaNB} {
		if len(col) != nodes {
			return fmt.Errorf("check: memento node columns are inconsistent")
		}
	}
	total := 0
	for i, l := range m.NodeLen {
		if l < 0 {
			return fmt.Errorf("check: memento node %d has negative slot count %d", i, l)
		}
		total += int(l)
	}
	if total != len(m.SlotState) || len(m.SlotState) != len(m.SlotClass) || len(m.SlotState) != len(m.SlotCount) {
		return fmt.Errorf("check: memento slot columns are inconsistent")
	}
	for i := range m.NodeLen {
		// BFS discovers a node after its parent, so parents point strictly
		// backwards (the root has none): witness traces walking them end.
		if m.Parent[i] < -1 || int(m.Parent[i]) >= i || (i > 0 && m.Parent[i] < 0) {
			return fmt.Errorf("check: memento node %d has invalid parent %d", i, m.Parent[i])
		}
		if m.Parent[i] < 0 {
			continue
		}
		for _, id := range [4]int32{m.ViaA[i], m.ViaB[i], m.ViaNA[i], m.ViaNB[i]} {
			if id < 0 || int(id) >= len(m.States) {
				return fmt.Errorf("check: memento node %d parent edge references unknown state id %d", i, id)
			}
		}
	}

	e.intern = make(map[S]int32, len(m.States))
	e.states = append(e.states[:0], m.States...)
	e.stateHalts = e.stateHalts[:0]
	for id, s := range e.states {
		e.intern[s] = int32(id)
		e.stateHalts = append(e.stateHalts, e.proto.Halted(s))
	}

	e.nodes = make([]node, len(m.NodeLen))
	e.visited = make(map[string]int32, len(m.NodeLen))
	off := 0
	for i := range e.nodes {
		l := int(m.NodeLen[i])
		slots := make([]slot, l)
		for k := 0; k < l; k++ {
			sid := m.SlotState[off+k]
			if sid < 0 || int(sid) >= len(e.states) {
				return fmt.Errorf("check: memento node %d references unknown state id %d", i, sid)
			}
			slots[k] = slot{state: sid, class: m.SlotClass[off+k], count: m.SlotCount[off+k]}
		}
		off += l
		e.nodes[i] = node{
			slots:  slots,
			parent: m.Parent[i],
			via:    edge{a: m.ViaA[i], b: m.ViaB[i], na: m.ViaNA[i], nb: m.ViaNB[i]},
			halted: e.configHalted(slots),
		}
		e.visited[key(slots)] = int32(i)
	}
	e.head = m.Head
	return nil
}
