package bdd

// SetSlotEpoch sets the epoch of every SlotTable on m's free list, so an
// external test can drive the tables through an epoch wrap.
func SetSlotEpoch(m *Manager, e uint32) { m.setSlotEpoch(e) }
