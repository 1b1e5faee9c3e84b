package bdd

import "sort"

// Support computation.

// SupportVars returns the indices of the variables f depends on, in
// increasing index order.
func (m *Manager) SupportVars(f Ref) []int {
	return m.VectorSupport([]Ref{f})
}

// supportLevels marks the forest rooted at fs in t and returns, indexed by
// level, whether some marked node sits there. Must run under the read
// lease.
func (m *Manager) supportLevels(fs []Ref, t *SlotTable) []bool {
	for _, f := range fs {
		m.markRec(f.index(), t)
	}
	levels := make([]bool, len(m.subtables))
	for _, idx := range t.ids {
		if lev := m.nodes[idx].level; lev != terminalLevel {
			levels[lev] = true
		}
	}
	return levels
}

// SupportSize returns the number of variables f depends on.
func (m *Manager) SupportSize(f Ref) int {
	t := m.Slots()
	defer t.Release()
	n := 0
	m.readLocked(func() {
		for _, in := range m.supportLevels([]Ref{f}, t) {
			if in {
				n++
			}
		}
	})
	return n
}

// SupportCube returns the positive cube of f's support variables.
func (m *Manager) SupportCube(f Ref) Ref {
	return m.CubeFromVars(m.SupportVars(f))
}

// VectorSupport returns the union of the supports of the given functions.
func (m *Manager) VectorSupport(fs []Ref) []int {
	t := m.Slots()
	defer t.Release()
	vars := []int{}
	m.readLocked(func() {
		for lev, in := range m.supportLevels(fs, t) {
			if in {
				vars = append(vars, int(m.levToVar[lev]))
			}
		}
	})
	sort.Ints(vars)
	return vars
}
