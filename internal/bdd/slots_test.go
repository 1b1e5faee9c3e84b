package bdd

import (
	"math"
	"testing"
)

func TestSlotTableBasics(t *testing.T) {
	m := New(4)
	tab := m.Slots()
	defer tab.Release()
	f := m.And(m.IthVar(0), m.IthVar(1))
	if _, ok := tab.Slot(f); ok {
		t.Fatal("empty table reports a slot")
	}
	s, added := tab.Add(f)
	if s != 0 || !added {
		t.Fatalf("first Add = (%d, %v), want (0, true)", s, added)
	}
	if s, added := tab.Add(f.Complement()); s != 0 || added {
		t.Fatalf("complement Add = (%d, %v), want (0, false): polarities share a slot", s, added)
	}
	if s, _ := tab.Add(One); s != 1 {
		t.Fatalf("second node got slot %d, want 1", s)
	}
	if tab.Len() != 2 || tab.Node(0) != f.Regular() || tab.Node(1) != One {
		t.Fatalf("Len/Node = %d %v %v", tab.Len(), tab.Node(0), tab.Node(1))
	}
	// An index far past the table's end grows it on Add and misses on Slot.
	far := Ref(5_000_000 << 1)
	if _, ok := tab.Slot(far); ok {
		t.Fatal("Slot past the end reports a hit")
	}
	if s, added := tab.Add(far); s != 2 || !added {
		t.Fatalf("Add past the end = (%d, %v), want (2, true)", s, added)
	}
	if s, ok := tab.Slot(f); !ok || s != 0 {
		t.Fatal("growth lost an entry")
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatal("Reset left slots behind")
	}
	if _, ok := tab.Slot(f); ok {
		t.Fatal("Reset left an entry present")
	}
}

// TestSlotTableEpochWrap stamps an entry at epoch 1, runs the epoch round
// to 1 again, and checks the wrap cleared the stale stamp.
func TestSlotTableEpochWrap(t *testing.T) {
	m := New(2)
	tab := m.Slots()
	if tab.epoch != 1 {
		t.Fatalf("fresh table epoch %d, want 1", tab.epoch)
	}
	tab.Add(m.IthVar(0))
	tab.epoch = math.MaxUint32
	tab.Reset() // wraps: 0 is skipped and every stamp is cleared
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap %d, want 1", tab.epoch)
	}
	if _, ok := tab.Slot(m.IthVar(0)); ok {
		t.Fatal("entry stamped before the wrap is present after it")
	}
}

// TestSlotTableFreeList checks tables are reused and the free list stays
// bounded.
func TestSlotTableFreeList(t *testing.T) {
	m := New(2)
	a := m.Slots()
	a.Release()
	if b := m.Slots(); b != a {
		t.Fatal("released table was not reused")
	}
	var held []*SlotTable
	for i := 0; i < 2*slotFreeMax; i++ {
		held = append(held, m.Slots())
	}
	for _, h := range held {
		h.Release()
	}
	if n := len(m.slots.free); n != slotFreeMax {
		t.Fatalf("free list holds %d tables, want %d", n, slotFreeMax)
	}
}

func TestPolarMemo(t *testing.T) {
	m := New(3)
	p := NewPolarMemo[int](m)
	defer p.Release()
	f := m.Or(m.IthVar(0), m.IthVar(2))
	p.Put(f, 7)
	if _, ok := p.Get(f.Complement()); ok {
		t.Fatal("a value stored for f is visible through its complement")
	}
	p.Put(f.Complement(), 9)
	p.Put(One, 1)
	if v, ok := p.Get(f); !ok || v != 7 {
		t.Fatalf("Get(f) = %d, %v", v, ok)
	}
	if v, ok := p.Get(f.Complement()); !ok || v != 9 {
		t.Fatalf("Get(¬f) = %d, %v", v, ok)
	}
	got := map[Ref]int{}
	p.Each(func(r Ref, v int) { got[r] = v })
	if len(got) != 3 || got[f] != 7 || got[f.Complement()] != 9 || got[One] != 1 || p.Len() != 2 {
		t.Fatalf("Each saw %v over %d nodes", got, p.Len())
	}
}
