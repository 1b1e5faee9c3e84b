package bdd

import "sync"

// SlotTable numbers the nodes one traversal touches with dense slots
// 0, 1, 2, ... in first-visit order, so the traversal keeps its per-node
// data in plain slices indexed by slot instead of a map keyed by node ID
// (the in-place marking of CUDD's Cudd_DagSize, made safe for concurrent
// readers by giving each reader its own table).
//
// The table is indexed by arena index (Ref.ID). Each entry pairs an epoch
// stamp with a slot, side by side so one probe touches one cache line; an
// entry is present only when its stamp equals the table's current epoch,
// so Reset clears the table in O(1) by bumping the epoch. The arrays grow
// lazily, on the first Add past their end, and never shrink: a traversal
// costs O(nodes visited), never O(arena). Because the table never reads
// the arena, it stays valid while the manager allocates or collects; the
// caller only has to keep the nodes it has added alive.
//
// Tables come from Manager.Slots and go back with Release. A table is
// owned by one goroutine between the two calls.
type SlotTable struct {
	m     *Manager
	ent   []slotEntry // arena index -> stamped slot
	ids   []uint32    // slot -> arena index, in first-visit order
	epoch uint32
}

type slotEntry struct {
	stamp uint32
	slot  int32
}

// slotFreeMax bounds the Manager's free list of SlotTables; a release
// beyond it drops the table.
const slotFreeMax = 4

// slotTables is the Manager's free list of SlotTables. It has its own
// mutex so that taking a table never touches the read lease: counting
// already holds the lease when it needs a table, and the lease is not
// re-entrant.
type slotTables struct {
	mu   sync.Mutex
	free []*SlotTable
}

// Slots returns an empty SlotTable for one traversal. Pair it with
// Release; a table that is never released is simply garbage collected.
func (m *Manager) Slots() *SlotTable {
	p := &m.slots
	p.mu.Lock()
	var t *SlotTable
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if t == nil {
		t = &SlotTable{m: m}
	}
	t.Reset()
	return t
}

// Release hands the table back to its manager for reuse. The table must
// not be used afterwards.
func (t *SlotTable) Release() {
	p := &t.m.slots
	p.mu.Lock()
	if len(p.free) < slotFreeMax {
		p.free = append(p.free, t)
	}
	p.mu.Unlock()
}

// Reset empties the table for a new traversal in O(1). When the epoch
// wraps to 0 the stamps are cleared, so an entry stamped 2^32 resets ago
// cannot pass for a current one.
func (t *SlotTable) Reset() {
	t.ids = t.ids[:0]
	t.epoch++
	if t.epoch == 0 {
		clear(t.ent)
		t.epoch = 1
	}
}

// Len returns the number of slots handed out since the last Reset.
func (t *SlotTable) Len() int { return len(t.ids) }

// Node returns the regular Ref of the node holding slot s.
func (t *SlotTable) Node(s int) Ref { return Ref(t.ids[s] << 1) }

// Slot returns the slot of f's node, if the node was added since the last
// Reset. f and its complement share the slot.
func (t *SlotTable) Slot(f Ref) (int, bool) {
	idx := f.index()
	if int(idx) >= len(t.ent) {
		return 0, false
	}
	e := t.ent[idx]
	return int(e.slot), e.stamp == t.epoch
}

// Add returns the slot of f's node, handing out the next slot if the node
// is new since the last Reset; added reports which.
func (t *SlotTable) Add(f Ref) (slot int, added bool) { return t.addIndex(f.index()) }

func (t *SlotTable) addIndex(idx int32) (int, bool) {
	if int(idx) >= len(t.ent) {
		t.grow(idx)
	}
	e := &t.ent[idx]
	if e.stamp == t.epoch {
		return int(e.slot), false
	}
	s := len(t.ids)
	e.stamp = t.epoch
	e.slot = int32(s)
	t.ids = append(t.ids, uint32(idx))
	return s, true
}

// grow extends the entry array to cover idx, rounding up to a power of two
// so the table never outgrows a power-of-two arena. New entries carry
// stamp 0, which no live epoch uses.
func (t *SlotTable) grow(idx int32) {
	n := 1024
	for n <= int(idx) {
		n <<= 1
	}
	ent := make([]slotEntry, n)
	copy(ent, t.ent)
	t.ent = ent
}

// PolarMemo maps the functions one traversal visits to values, one entry
// per polarity of each node: f and its complement share a slot of the
// underlying SlotTable and keep separate values. Like a SlotTable it is
// owned by one goroutine until Release.
type PolarMemo[T any] struct {
	t   *SlotTable
	val []polarEntry[T] // slot -> values of the regular and complemented function
}

type polarEntry[T any] struct {
	v   [2]T
	has [2]bool
}

// NewPolarMemo returns an empty memo backed by one of m's SlotTables.
func NewPolarMemo[T any](m *Manager) *PolarMemo[T] { return &PolarMemo[T]{t: m.Slots()} }

// Get returns the value stored for f, if any.
func (p *PolarMemo[T]) Get(f Ref) (T, bool) {
	s, ok := p.t.Slot(f)
	if !ok {
		var zero T
		return zero, false
	}
	e := &p.val[s]
	return e.v[f&1], e.has[f&1]
}

// Put stores v for f.
func (p *PolarMemo[T]) Put(f Ref, v T) {
	s, added := p.t.Add(f)
	if added {
		p.val = append(p.val, polarEntry[T]{})
	}
	e := &p.val[s]
	e.v[f&1], e.has[f&1] = v, true
}

// Each calls fn for every stored function and its value, in slot order.
func (p *PolarMemo[T]) Each(fn func(f Ref, v T)) {
	for s := range p.val {
		e := &p.val[s]
		for c := range e.v {
			if e.has[c] {
				fn(p.t.Node(s)^Ref(c), e.v[c])
			}
		}
	}
}

// Len returns the number of nodes with at least one stored polarity.
func (p *PolarMemo[T]) Len() int { return len(p.val) }

// Release hands the underlying table back to the manager.
func (p *PolarMemo[T]) Release() { p.t.Release() }

// setSlotEpoch sets the epoch of every table on the free list; tests use
// it to force a wrap.
func (m *Manager) setSlotEpoch(e uint32) {
	m.slots.mu.Lock()
	defer m.slots.mu.Unlock()
	for _, t := range m.slots.free {
		t.epoch = e
	}
}
