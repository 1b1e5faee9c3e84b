package bdd

// ReadLocked runs fn under the engine's read lease plus the memory lease:
// the same protection the manager's own read-only traversals
// (DagSize, MintermFraction, Save, ...) take, exported for sibling
// packages that sweep the arena through the structural accessors
// (Level/Var/Hi/Lo/StructHi/StructLo) — internal/count's exact counting
// sweeps are the canonical caller. On a serial manager (Workers <= 1) it
// is free.
//
// fn must only read: it must not allocate nodes or change reference
// counts (doing so can stop the world while fn holds the barrier, which
// deadlocks), and it must not call ReadLocked re-entrantly (the read
// lease is not re-entrant across a concurrent writer). Heap allocation
// (big.Ints, slices) is fine; only BDD node allocation is off-limits.
// Per-node side data belongs in a SlotTable from Manager.Slots, taken
// before or inside fn: taking a table never takes the lease.
func (m *Manager) ReadLocked(fn func()) { m.readLocked(fn) }
