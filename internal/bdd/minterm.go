package bdd

// Counting: DAG sizes, minterm counts, and the density measure δ(g) =
// ‖g‖/|g| that Section 2 of the paper ranks approximations by.

// DagSize returns |f|: the number of distinct nodes in the BDD rooted at f,
// including the constant node (the CUDD convention).
func (m *Manager) DagSize(f Ref) int {
	var n int
	m.readLocked(func() { n = m.dagSize(f) })
	return n
}

// dagSize is the lock-free body of DagSize, for internal use under a lease
// the caller already holds.
func (m *Manager) dagSize(f Ref) int {
	t := m.Slots()
	defer t.Release()
	m.markRec(f.index(), t)
	return t.Len()
}

// markRec adds every node reachable from idx to t.
func (m *Manager) markRec(idx int32, t *SlotTable) {
	if _, added := t.addIndex(idx); !added {
		return
	}
	n := &m.nodes[idx]
	if n.level == terminalLevel {
		return
	}
	m.markRec(n.hi.index(), t)
	m.markRec(n.lo.index(), t)
}

// SharingSize returns the number of distinct nodes in the forest rooted at
// the given functions — the "shared size" reported in Table 4 of the paper.
func (m *Manager) SharingSize(fs []Ref) int {
	t := m.Slots()
	defer t.Release()
	m.readLocked(func() {
		for _, f := range fs {
			m.markRec(f.index(), t)
		}
	})
	return t.Len()
}

// CountMinterm returns ‖f‖: the number of minterms of f over nVars
// variables, as a float64 (exact for counts below 2^53, the CUDD
// convention).
func (m *Manager) CountMinterm(f Ref, nVars int) float64 {
	return m.MintermFraction(f) * pow2(nVars)
}

// MintermFraction returns ‖f‖ / 2^n: the fraction of the full variable
// space on which f is 1. It is independent of the number of variables.
func (m *Manager) MintermFraction(f Ref) float64 {
	t := m.Slots()
	defer t.Release()
	var p float64
	m.readLocked(func() {
		var memo []float64 // slot -> fraction of the regular node
		p = m.fracRec(f.index(), t, &memo)
	})
	if f.IsComplement() {
		return 1 - p
	}
	return p
}

// fracRec returns the minterm fraction of the regular node idx, memoizing
// by slot (the fraction of the complemented function is 1 - p).
func (m *Manager) fracRec(idx int32, t *SlotTable, memo *[]float64) float64 {
	n := &m.nodes[idx]
	if n.level == terminalLevel {
		return 1 // the regular constant is One
	}
	s, added := t.addIndex(idx)
	if !added {
		return (*memo)[s]
	}
	*memo = append(*memo, 0)
	ph := m.fracRec(n.hi.index(), t, memo) // hi edge is regular by canonicity
	pl := m.fracRec(n.lo.index(), t, memo)
	if n.lo.IsComplement() {
		pl = 1 - pl
	}
	p := 0.5*ph + 0.5*pl
	(*memo)[s] = p
	return p
}

// Density returns δ(f) = ‖f‖ / |f| over nVars variables (Definition in
// Section 2 of the paper, after Ravi–Somenzi ICCAD'95).
func (m *Manager) Density(f Ref, nVars int) float64 {
	return m.CountMinterm(f, nVars) / float64(m.DagSize(f))
}

// CountPath returns the number of paths from f's root to the constant One
// (the number of cubes an AllSat enumeration would produce), as float64.
func (m *Manager) CountPath(f Ref) float64 {
	memo := NewPolarMemo[float64](m)
	defer memo.Release()
	var rec func(r Ref) float64
	rec = func(r Ref) float64 {
		if r == One {
			return 1
		}
		if r == Zero {
			return 0
		}
		if v, ok := memo.Get(r); ok {
			return v
		}
		n := &m.nodes[r.index()]
		c := r & 1
		v := rec(n.hi^c) + rec(n.lo^c)
		memo.Put(r, v)
		return v
	}
	var out float64
	m.readLocked(func() { out = rec(f) })
	return out
}

// pow2 returns 2^n as a float64 (n may exceed 63).
func pow2(n int) float64 {
	p := 1.0
	for n >= 60 {
		p *= float64(uint64(1) << 60)
		n -= 60
	}
	return p * float64(uint64(1)<<uint(n))
}
